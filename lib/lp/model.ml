type var = int

type var_info = { ub : float; integer : bool }

type op = Le | Ge | Eq

type t = {
  mutable vars : var_info list;       (* reversed *)
  mutable n : int;
  mutable constraints : Simplex.row list; (* reversed *)
  mutable objective : (int * float) list;
}

let create () = { vars = []; n = 0; constraints = []; objective = [] }

let add_var ?(ub = infinity) ?(integer = false) t =
  if ub < 0.0 then invalid_arg "Model.add_var: negative ub";
  let v = t.n in
  t.vars <- { ub; integer } :: t.vars;
  t.n <- t.n + 1;
  v

let binary t = add_var ~ub:1.0 ~integer:true t

let var_index v = v

let op_to_simplex = function Le -> Simplex.Le | Ge -> Simplex.Ge | Eq -> Simplex.Eq

let add_constraint t terms op rhs =
  let coeffs = List.map (fun (c, v) -> (v, c)) terms in
  t.constraints <- { Simplex.coeffs; op = op_to_simplex op; rhs } :: t.constraints

let set_objective t terms = t.objective <- List.map (fun (c, v) -> (v, c)) terms

let to_lp t ~extra =
  let objective = Array.make t.n 0.0 in
  List.iter (fun (v, c) -> objective.(v) <- objective.(v) +. c) t.objective;
  let rows = ref (List.rev t.constraints) in
  (* Upper bounds as explicit rows. *)
  let vars = Array.of_list (List.rev t.vars) in
  Array.iteri
    (fun v vi ->
      if vi.ub < infinity then
        rows := { Simplex.coeffs = [ (v, 1.0) ]; op = Simplex.Le; rhs = vi.ub } :: !rows)
    vars;
  { Simplex.n_vars = t.n; objective; rows = List.rev_append extra !rows }

let integer_vars t =
  let vars = Array.of_list (List.rev t.vars) in
  let acc = ref [] in
  Array.iteri (fun v vi -> if vi.integer then acc := v :: !acc) vars;
  List.rev !acc

let value x v = x.(v)
