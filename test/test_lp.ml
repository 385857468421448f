open Cisp_lp

let check_float eps = Alcotest.(check (float eps))

(* ---------- Simplex ---------- *)

let solve_expect_optimal p =
  match Simplex.solve p with
  | Simplex.Optimal s -> s
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_simplex_basic_le () =
  (* max x + y st x + 2y <= 4, 3x + y <= 6  => min -(x+y); optimum at
     intersection (8/5, 6/5), value 14/5. *)
  let p =
    {
      Simplex.n_vars = 2;
      objective = [| -1.0; -1.0 |];
      rows =
        [
          { Simplex.coeffs = [ (0, 1.0); (1, 2.0) ]; op = Simplex.Le; rhs = 4.0 };
          { Simplex.coeffs = [ (0, 3.0); (1, 1.0) ]; op = Simplex.Le; rhs = 6.0 };
        ];
    }
  in
  let s = solve_expect_optimal p in
  check_float 1e-7 "objective" (-.(14.0 /. 5.0)) s.objective;
  check_float 1e-7 "x" (8.0 /. 5.0) s.x.(0);
  check_float 1e-7 "y" (6.0 /. 5.0) s.x.(1)

let test_simplex_eq () =
  (* min x + y st x + y = 3, x - y = 1 -> x=2, y=1, obj 3. *)
  let p =
    {
      Simplex.n_vars = 2;
      objective = [| 1.0; 1.0 |];
      rows =
        [
          { Simplex.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Simplex.Eq; rhs = 3.0 };
          { Simplex.coeffs = [ (0, 1.0); (1, -1.0) ]; op = Simplex.Eq; rhs = 1.0 };
        ];
    }
  in
  let s = solve_expect_optimal p in
  check_float 1e-7 "obj" 3.0 s.objective;
  check_float 1e-7 "x" 2.0 s.x.(0);
  check_float 1e-7 "y" 1.0 s.x.(1)

let test_simplex_ge () =
  (* min 2x + 3y st x + y >= 4, x >= 1 -> (4,0) obj 8. *)
  let p =
    {
      Simplex.n_vars = 2;
      objective = [| 2.0; 3.0 |];
      rows =
        [
          { Simplex.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Simplex.Ge; rhs = 4.0 };
          { Simplex.coeffs = [ (0, 1.0) ]; op = Simplex.Ge; rhs = 1.0 };
        ];
    }
  in
  let s = solve_expect_optimal p in
  check_float 1e-7 "obj" 8.0 s.objective

let test_simplex_infeasible () =
  let p =
    {
      Simplex.n_vars = 1;
      objective = [| 1.0 |];
      rows =
        [
          { Simplex.coeffs = [ (0, 1.0) ]; op = Simplex.Le; rhs = 1.0 };
          { Simplex.coeffs = [ (0, 1.0) ]; op = Simplex.Ge; rhs = 2.0 };
        ];
    }
  in
  match Simplex.solve p with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  let p =
    {
      Simplex.n_vars = 1;
      objective = [| -1.0 |];
      rows = [ { Simplex.coeffs = [ (0, 1.0) ]; op = Simplex.Ge; rhs = 0.0 } ];
    }
  in
  match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_negative_rhs () =
  (* min x st -x <= -5  (i.e. x >= 5). *)
  let p =
    {
      Simplex.n_vars = 1;
      objective = [| 1.0 |];
      rows = [ { Simplex.coeffs = [ (0, -1.0) ]; op = Simplex.Le; rhs = -5.0 } ];
    }
  in
  let s = solve_expect_optimal p in
  check_float 1e-7 "x" 5.0 s.x.(0)

let test_simplex_degenerate () =
  (* Classic degenerate vertex; must terminate and find optimum.
     min -x1 - x2 st x1 <= 1, x2 <= 1, x1 + x2 <= 2 (redundant). *)
  let p =
    {
      Simplex.n_vars = 2;
      objective = [| -1.0; -1.0 |];
      rows =
        [
          { Simplex.coeffs = [ (0, 1.0) ]; op = Simplex.Le; rhs = 1.0 };
          { Simplex.coeffs = [ (1, 1.0) ]; op = Simplex.Le; rhs = 1.0 };
          { Simplex.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Simplex.Le; rhs = 2.0 };
        ];
    }
  in
  let s = solve_expect_optimal p in
  check_float 1e-7 "obj" (-2.0) s.objective

(* Brute-force LP check on random instances via vertex enumeration is
   overkill; instead verify feasibility and local optimality via weak
   duality on randomly generated bounded problems. *)
let prop_simplex_feasible_solution =
  QCheck.Test.make ~name:"simplex returns feasible point" ~count:150
    QCheck.(make Gen.(pair (int_range 1 5) (pair (int_range 1 6) small_int)))
    (fun (nv, (nr, seed)) ->
      let rng = Cisp_util.Rng.create seed in
      let coeff () = Cisp_util.Rng.uniform rng 0.1 3.0 in
      let rows =
        List.init nr (fun _ ->
            {
              Simplex.coeffs = List.init nv (fun j -> (j, coeff ()));
              op = Simplex.Le;
              rhs = Cisp_util.Rng.uniform rng 1.0 10.0;
            })
      in
      let objective = Array.init nv (fun _ -> -.coeff ()) in
      let p = { Simplex.n_vars = nv; objective; rows } in
      match Simplex.solve p with
      | Simplex.Optimal s ->
        List.for_all
          (fun (r : Simplex.row) ->
            let lhs = List.fold_left (fun acc (j, v) -> acc +. (v *. s.x.(j))) 0.0 r.coeffs in
            lhs <= r.rhs +. 1e-6)
          rows
        && Array.for_all (fun v -> v >= -1e-9) s.x
      | Simplex.Infeasible | Simplex.Unbounded -> false)

(* ---------- MILP ---------- *)

let test_milp_knapsack () =
  (* max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary.
     Best: a + c (weight 5, value 17) vs b + c (6, 20) -> b + c. *)
  let m = Model.create () in
  let a = Model.binary m and b = Model.binary m and c = Model.binary m in
  Model.add_constraint m [ (3.0, a); (4.0, b); (2.0, c) ] Model.Le 6.0;
  Model.set_objective m [ (-10.0, a); (-13.0, b); (-7.0, c) ];
  let r = Milp.solve m in
  (match r.status with `Optimal -> () | _ -> Alcotest.fail "expected optimal");
  check_float 1e-6 "objective" (-20.0) (Option.get r.objective);
  let x = Option.get r.x in
  check_float 1e-6 "a" 0.0 (Model.value x a);
  check_float 1e-6 "b" 1.0 (Model.value x b);
  check_float 1e-6 "c" 1.0 (Model.value x c)

let test_milp_integer_rounding_matters () =
  (* max x st 2x <= 3, x integer -> x=1 (LP gives 1.5). *)
  let m = Model.create () in
  let x = Model.add_var ~ub:10.0 ~integer:true m in
  Model.add_constraint m [ (2.0, x) ] Model.Le 3.0;
  Model.set_objective m [ (-1.0, x) ];
  let r = Milp.solve m in
  check_float 1e-6 "x integral" 1.0 (Model.value (Option.get r.x) x)

let test_milp_infeasible () =
  let m = Model.create () in
  let x = Model.binary m in
  Model.add_constraint m [ (1.0, x) ] Model.Ge 2.0;
  Model.set_objective m [ (1.0, x) ];
  let r = Milp.solve m in
  match r.status with
  | `Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_milp_continuous_passthrough () =
  (* Pure LP through the MILP interface. *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  Model.add_constraint m [ (1.0, x); (1.0, y) ] Model.Ge 2.0;
  Model.set_objective m [ (1.0, x); (2.0, y) ];
  let r = Milp.solve m in
  check_float 1e-6 "objective" 2.0 (Option.get r.objective)

(* Exhaustive cross-check: random small binary programs vs brute force. *)
let brute_force_binary nv rows_list obj =
  let best = ref infinity in
  for mask = 0 to (1 lsl nv) - 1 do
    let x = Array.init nv (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0) in
    let feasible =
      List.for_all
        (fun (coeffs, op, rhs) ->
          let lhs = List.fold_left (fun acc (j, v) -> acc +. (v *. x.(j))) 0.0 coeffs in
          match op with
          | Model.Le -> lhs <= rhs +. 1e-9
          | Model.Ge -> lhs >= rhs -. 1e-9
          | Model.Eq -> Float.abs (lhs -. rhs) < 1e-9)
        rows_list
    in
    if feasible then begin
      let v = List.fold_left (fun acc (c, j) -> acc +. (c *. x.(j))) 0.0 obj in
      if v < !best then best := v
    end
  done;
  !best

let prop_milp_matches_brute_force =
  QCheck.Test.make ~name:"B&B matches brute force on random binary programs" ~count:60
    QCheck.(make Gen.(pair (int_range 2 7) small_int))
    (fun (nv, seed) ->
      let rng = Cisp_util.Rng.create (seed + 1) in
      let nr = 1 + Cisp_util.Rng.int rng 4 in
      let rows_list =
        List.init nr (fun _ ->
            let coeffs =
              List.init nv (fun j -> (j, Cisp_util.Rng.uniform rng (-2.0) 4.0))
            in
            (coeffs, Model.Le, Cisp_util.Rng.uniform rng 1.0 6.0))
      in
      let obj = List.init nv (fun j -> (Cisp_util.Rng.uniform rng (-5.0) 5.0, j)) in
      let m = Model.create () in
      let vars = Array.init nv (fun _ -> Model.binary m) in
      List.iter
        (fun (coeffs, op, rhs) ->
          Model.add_constraint m (List.map (fun (j, v) -> (v, vars.(j))) coeffs) op rhs)
        rows_list;
      Model.set_objective m (List.map (fun (c, j) -> (c, vars.(j))) obj);
      let r = Milp.solve m in
      let brute = brute_force_binary nv rows_list obj in
      match (r.status, r.objective) with
      | `Optimal, Some v -> Float.abs (v -. brute) < 1e-6
      | `Infeasible, None -> brute = infinity
      | _ -> false)

let suites =
  [
    ( "lp.simplex",
      [
        Alcotest.test_case "basic le" `Quick test_simplex_basic_le;
        Alcotest.test_case "equalities" `Quick test_simplex_eq;
        Alcotest.test_case "ge constraints" `Quick test_simplex_ge;
        Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
        Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
        Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
        Alcotest.test_case "degenerate" `Quick test_simplex_degenerate;
        QCheck_alcotest.to_alcotest prop_simplex_feasible_solution;
      ] );
    ( "lp.milp",
      [
        Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
        Alcotest.test_case "rounding matters" `Quick test_milp_integer_rounding_matters;
        Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
        Alcotest.test_case "continuous passthrough" `Quick test_milp_continuous_passthrough;
        QCheck_alcotest.to_alcotest prop_milp_matches_brute_force;
      ] );
  ]

(* ---------- exact cross-check on 2-variable LPs ---------- *)

(* For 2 variables with Le rows, the optimum lies on a vertex:
   intersections of constraint-pair boundaries and the axes.  Enumerate
   them all and compare with the simplex result. *)
let brute_force_2var rows obj =
  let feasible (x, y) =
    x >= -1e-9 && y >= -1e-9
    && List.for_all
         (fun (a, b, c) -> (a *. x) +. (b *. y) <= c +. 1e-7)
         rows
  in
  let candidates = ref [ (0.0, 0.0) ] in
  let lines = (1.0, 0.0, 0.0) :: (0.0, 1.0, 0.0) :: rows in
  let rec pairs = function
    | [] -> ()
    | (a1, b1, c1) :: rest ->
      List.iter
        (fun (a2, b2, c2) ->
          let det = (a1 *. b2) -. (a2 *. b1) in
          if Float.abs det > 1e-9 then begin
            let x = ((c1 *. b2) -. (c2 *. b1)) /. det in
            let y = ((a1 *. c2) -. (a2 *. c1)) /. det in
            candidates := (x, y) :: !candidates
          end)
        rest;
      pairs rest
  in
  pairs lines;
  List.fold_left
    (fun best (x, y) ->
      if feasible (x, y) then begin
        let (ox, oy) = obj in
        Float.min best ((ox *. x) +. (oy *. y))
      end
      else best)
    infinity !candidates

let prop_simplex_matches_vertex_enumeration =
  QCheck.Test.make ~name:"simplex = vertex enumeration on 2-var LPs" ~count:200
    QCheck.small_int
    (fun seed ->
      let rng = Cisp_util.Rng.create (seed + 77) in
      let nr = 2 + Cisp_util.Rng.int rng 4 in
      let rows =
        List.init nr (fun _ ->
            ( Cisp_util.Rng.uniform rng 0.2 3.0,
              Cisp_util.Rng.uniform rng 0.2 3.0,
              Cisp_util.Rng.uniform rng 1.0 8.0 ))
      in
      (* negative objective keeps the LP bounded by the Le rows *)
      let obj = (-.Cisp_util.Rng.uniform rng 0.1 4.0, -.Cisp_util.Rng.uniform rng 0.1 4.0) in
      let p =
        {
          Simplex.n_vars = 2;
          objective = [| fst obj; snd obj |];
          rows =
            List.map
              (fun (a, b, c) ->
                { Simplex.coeffs = [ (0, a); (1, b) ]; op = Simplex.Le; rhs = c })
              rows;
        }
      in
      match Simplex.solve p with
      | Simplex.Optimal s -> Float.abs (s.objective -. brute_force_2var rows obj) < 1e-6
      | Simplex.Infeasible | Simplex.Unbounded -> false)

let suites =
  suites
  @ [
      ( "lp.exactness",
        [ QCheck_alcotest.to_alcotest prop_simplex_matches_vertex_enumeration ] );
    ]

(* Budget-limited runs must still return a feasible incumbent (the
   rounding dive guarantees one whenever the problem is feasible).  A
   zero time limit stops the search before its first node, so the
   incumbent checked is the dive's own. *)
let test_milp_budget_limited_has_incumbent () =
  let rng = Cisp_util.Rng.create 99 in
  let m = Model.create () in
  let n = 24 in
  let xs = Array.init n (fun _ -> Model.binary m) in
  let weights = Array.init n (fun _ -> Cisp_util.Rng.uniform rng 1.0 9.0) in
  let values = Array.init n (fun _ -> Cisp_util.Rng.uniform rng 1.0 9.0) in
  Model.add_constraint m
    (Array.to_list (Array.mapi (fun i x -> (weights.(i), x)) xs))
    Model.Le 40.0;
  Model.set_objective m (Array.to_list (Array.mapi (fun i x -> (-.values.(i), x)) xs));
  let r = Milp.solve ~time_limit_s:0.0 m in
  (match r.Milp.x with
  | Some x ->
    (* incumbent is feasible and integral *)
    let w = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i v -> weights.(i) *. Model.value x v) xs) in
    Alcotest.(check bool) "feasible" true (w <= 40.0 +. 1e-6);
    Array.iter
      (fun v ->
        let xv = Model.value x v in
        Alcotest.(check bool) "integral" true (Float.abs (xv -. Float.round xv) < 1e-6))
      xs
  | None -> Alcotest.fail "budget-limited run returned no incumbent");
  match r.Milp.status with
  | `Optimal | `Feasible_gap _ -> ()
  | _ -> Alcotest.fail "expected optimal or gap"

let suites =
  suites
  @ [
      ( "lp.budget_limited",
        [ Alcotest.test_case "dive plants incumbent" `Quick test_milp_budget_limited_has_incumbent ] );
    ]
