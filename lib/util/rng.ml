type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let next_seed t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

(* splitmix64 finalizer *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t = mix (next_seed t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Keep 62 bits so the value fits OCaml's 63-bit nonnegative range. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let float t bound =
  (* 53 random bits -> [0,1) *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 *. bound

let uniform t lo hi = lo +. float t (hi -. lo)

let gaussian t =
  let rec u () =
    let x = float t 1.0 in
    if x <= 0.0 then u () else x
  in
  let u1 = u () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let exponential t rate =
  let rec u () =
    let x = float t 1.0 in
    if x <= 0.0 then u () else x
  in
  -.log (u ()) /. rate

let poisson t mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: mean < 0";
  if Float.equal mean 0.0 then 0
  else if mean > 50.0 then
    (* Normal approximation, adequate for synthetic workload generation. *)
    let x = mean +. (sqrt mean *. gaussian t) in
    max 0 (int_of_float (Float.round x))
  else
    let limit = exp (-.mean) in
    let rec loop k p =
      let p = p *. float t 1.0 in
      if p <= limit then k else loop (k + 1) p
    in
    loop 0 1.0

let lognormal t mu sigma = exp (mu +. (sigma *. gaussian t))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t arr k =
  if k > Array.length arr then invalid_arg "Rng.sample: k exceeds array length";
  let idx = Array.init (Array.length arr) (fun i -> i) in
  shuffle t idx;
  Array.init k (fun i -> arr.(idx.(i)))
