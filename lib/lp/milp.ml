(* Search stops after this many branch-and-bound nodes, or once the
   relative gap between incumbent and best bound is within
   [gap_tolerance]. *)
let max_nodes = 200_000
let gap_tolerance = 1e-6

type outcome = {
  status : [ `Optimal | `Feasible_gap of float | `Infeasible | `Unbounded | `No_solution ];
  x : float array option;
  objective : float option;
  nodes_explored : int;
  lp_solves : int;
}

let int_tol = 1e-6

let fractional_var ivars x =
  (* Most fractional integer variable, or None if all integral. *)
  let best = ref None in
  let best_frac = ref int_tol in
  List.iter
    (fun v ->
      let xv = x.(v) in
      let frac = Float.abs (xv -. Float.round xv) in
      if frac > !best_frac then begin
        best := Some v;
        best_frac := frac
      end)
    ivars;
  !best

let solve_relaxation model = Simplex.solve (Model.to_lp model ~extra:[])

let solve ?(time_limit_s = 120.0) model =
  let ivars = List.map Model.var_index (Model.integer_vars model) in
  let start = Sys.time () in
  let nodes_explored = ref 0 in
  let lp_solves = ref 0 in
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  (* Frontier: min-heap on LP bound (best-bound search) over indices
     into [nodes].  Each node is the list of branching rows accumulated
     so far with its LP solution; a popped slot is cleared so the
     solution can be collected. *)
  let frontier = Cisp_graph.Heap.create () in
  let nodes = ref [||] in
  let pushed = ref 0 in
  let push_node bound node =
    if !pushed = Array.length !nodes then begin
      let grown = Array.make (max 16 (2 * !pushed)) None in
      Array.blit !nodes 0 grown 0 !pushed;
      nodes := grown
    end;
    !nodes.(!pushed) <- Some node;
    Cisp_graph.Heap.push frontier bound !pushed;
    incr pushed
  in
  let solve_node extra =
    incr lp_solves;
    Simplex.solve (Model.to_lp model ~extra)
  in
  let push_children extra x v =
    let xv = x.(v) in
    let lo = Float.floor xv and hi = Float.ceil xv in
    let left = { Simplex.coeffs = [ (v, 1.0) ]; op = Simplex.Le; rhs = lo } :: extra in
    let right = { Simplex.coeffs = [ (v, 1.0) ]; op = Simplex.Ge; rhs = hi } :: extra in
    List.iter
      (fun branch ->
        match solve_node branch with
        | Simplex.Infeasible -> ()
        | Simplex.Unbounded ->
          (* A bounded-below parent cannot have an unbounded child in a
             minimization with added constraints; treat as numerical
             trouble and drop. *)
          ()
        | Simplex.Optimal sol ->
          if sol.objective < !incumbent_obj -. 1e-12 then push_node sol.objective (branch, sol))
      [ left; right ]
  in
  let time_left () = Sys.time () -. start < time_limit_s in
  match solve_node [] with
  | Simplex.Infeasible ->
    { status = `Infeasible; x = None; objective = None; nodes_explored = 0; lp_solves = !lp_solves }
  | Simplex.Unbounded ->
    { status = `Unbounded; x = None; objective = None; nodes_explored = 0; lp_solves = !lp_solves }
  | Simplex.Optimal root ->
    (* Rounding dive: fix fractional integers one at a time towards
       their LP values to plant an early incumbent, so budget-limited
       runs report a feasible solution and best-bound search prunes. *)
    let rec dive2 extra sol depth =
      if depth <= 200 then begin
        match fractional_var ivars sol.Simplex.x with
        | None ->
          if sol.Simplex.objective < !incumbent_obj then begin
            incumbent := Some sol.Simplex.x;
            incumbent_obj := sol.Simplex.objective
          end
        | Some v ->
          let xv = sol.Simplex.x.(v) in
          let try_fix value k =
            let rows =
              { Simplex.coeffs = [ (v, 1.0) ]; op = Simplex.Eq; rhs = value } :: extra
            in
            match solve_node rows with
            | Simplex.Optimal s when s.Simplex.objective < !incumbent_obj -. 1e-12 ->
              dive2 rows s (depth + 1)
            | Simplex.Optimal _ | Simplex.Infeasible | Simplex.Unbounded -> k ()
          in
          let near = Float.round xv in
          let far = if Float.equal near 0.0 then 1.0 else near -. 1.0 in
          try_fix near (fun () -> try_fix far (fun () -> ()))
      end
    in
    dive2 [] root 0;
    push_node root.objective ([], root);
    let best_bound = ref root.objective in
    let rec loop () =
      if
        Cisp_graph.Heap.length frontier = 0
        || !nodes_explored >= max_nodes
        || not (time_left ())
      then ()
      else begin
        let bound = Cisp_graph.Heap.min_key frontier in
        let slot = Cisp_graph.Heap.pop_min frontier in
        match !nodes.(slot) with
        | None -> assert false
        | Some (extra, sol) ->
          !nodes.(slot) <- None;
          best_bound := bound;
          if bound >= !incumbent_obj -. 1e-12 then
            (* Everything left is dominated: best-bound order means we
               can stop. *)
            ()
          else begin
            incr nodes_explored;
            (match fractional_var ivars sol.Simplex.x with
            | None ->
              if sol.objective < !incumbent_obj then begin
                incumbent := Some sol.Simplex.x;
                incumbent_obj := sol.objective
              end
            | Some v -> push_children extra sol.Simplex.x v);
            (* Gap check. *)
            let gap =
              if Float.equal !incumbent_obj infinity then infinity
              else
                Float.abs (!incumbent_obj -. !best_bound)
                /. Float.max 1e-9 (Float.abs !incumbent_obj)
            in
            if gap > gap_tolerance then loop ()
          end
      end
    in
    loop ();
    (match !incumbent with
    | Some x ->
      let exhausted = Cisp_graph.Heap.length frontier = 0 in
      let gap =
        Float.abs (!incumbent_obj -. !best_bound)
        /. Float.max 1e-9 (Float.abs !incumbent_obj)
      in
      let status =
        if exhausted || gap <= gap_tolerance || !best_bound >= !incumbent_obj -. 1e-12
        then `Optimal
        else `Feasible_gap gap
      in
      {
        status;
        x = Some x;
        objective = Some !incumbent_obj;
        nodes_explored = !nodes_explored;
        lp_solves = !lp_solves;
      }
    | None ->
      {
        status = `No_solution;
        x = None;
        objective = None;
        nodes_explored = !nodes_explored;
        lp_solves = !lp_solves;
      })
