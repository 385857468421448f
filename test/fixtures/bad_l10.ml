(* L10: zero-alloc contracts. *)

(* direct violation: the tuple result boxes both floats *)
let[@cisp.zero_alloc] pair x y = (x +. y, x -. y)

(* the violation originates in the helper unit: blame lands there *)
let[@cisp.zero_alloc] deep a b = Bad_l10_helper.boxed a b

(* honest contract: register float math only *)
let[@cisp.zero_alloc] clean x y = (x *. y) +. 1.0

(* [@cisp.alloc_ok] stops allocation evidence at a justified cold path *)
let[@cisp.alloc_ok "cold: error formatting"] cold x = string_of_int x
let[@cisp.zero_alloc] damped x = String.length (cold x)
