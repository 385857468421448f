type op = Le | Ge | Eq
type row = { coeffs : (int * float) list; op : op; rhs : float }
type problem = { n_vars : int; objective : float array; rows : row list }
type solution = { x : float array; objective : float }
type status = Optimal of solution | Infeasible | Unbounded

let eps = 1e-9

(* Tableau layout: [m] rows by [total] columns, plus a reduced-cost row
   and an objective value cell.  Columns: structural vars, then slack /
   surplus vars, then artificial vars.  basis.(i) is the column basic
   in row i. *)
type tableau = {
  a : float array array;      (* m x total *)
  b : float array;            (* m *)
  cost : float array;         (* total: current reduced-cost row *)
  mutable z : float;          (* current objective value (negated sum) *)
  basis : int array;          (* m *)
  m : int;
  total : int;
}

let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.(col) in
  assert (Float.abs p > eps);
  let inv = 1.0 /. p in
  for j = 0 to t.total - 1 do
    arow.(j) <- arow.(j) *. inv
  done;
  t.b.(row) <- t.b.(row) *. inv;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let f = t.a.(i).(col) in
      if Float.abs f > 0.0 then begin
        let r = t.a.(i) in
        for j = 0 to t.total - 1 do
          r.(j) <- r.(j) -. (f *. arow.(j))
        done;
        t.b.(i) <- t.b.(i) -. (f *. t.b.(row))
      end
    end
  done;
  let f = t.cost.(col) in
  if Float.abs f > 0.0 then begin
    for j = 0 to t.total - 1 do
      t.cost.(j) <- t.cost.(j) -. (f *. arow.(j))
    done;
    t.z <- t.z -. (f *. t.b.(row))
  end;
  t.basis.(row) <- col

(* Ratio test: minimum b_i / a_ic over a_ic > eps; Bland tie-break on
   smallest basis column to avoid cycling. *)
let leaving_row t ~col =
  let best = ref (-1) in
  let best_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    let a = t.a.(i).(col) in
    if a > eps then begin
      let ratio = t.b.(i) /. a in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps && !best >= 0 && t.basis.(i) < t.basis.(!best))
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  !best

(* Entering column: Dantzig rule normally; Bland (smallest index with
   negative reduced cost) when [bland] to guarantee termination. *)
let entering_col t ~allowed ~bland =
  if bland then begin
    let rec find j =
      if j >= t.total then -1
      else if allowed j && t.cost.(j) < -.eps then j
      else find (j + 1)
    in
    find 0
  end
  else begin
    let best = ref (-1) in
    let best_cost = ref (-.eps) in
    for j = 0 to t.total - 1 do
      if allowed j && t.cost.(j) < !best_cost then begin
        best := j;
        best_cost := t.cost.(j)
      end
    done;
    !best
  end

type phase_result = Phase_optimal | Phase_unbounded

let run_phase t ~allowed ~max_iters =
  let iters = ref 0 in
  let degenerate_streak = ref 0 in
  let rec loop () =
    incr iters;
    if !iters > max_iters then failwith "Simplex: iteration limit exceeded";
    let bland = !degenerate_streak > 2 * (t.m + t.total) in
    match entering_col t ~allowed ~bland with
    | -1 -> Phase_optimal
    | col ->
      (match leaving_row t ~col with
      | -1 -> Phase_unbounded
      | row ->
        if t.b.(row) < eps then incr degenerate_streak else degenerate_streak := 0;
        pivot t ~row ~col;
        loop ())
  in
  loop ()

let solve (p : problem) =
  let m = List.length p.rows in
  let n = p.n_vars in
  let rows = Array.of_list p.rows in
  (* Normalize rhs >= 0. *)
  let norm =
    Array.map
      (fun r ->
        if r.rhs < 0.0 then begin
          let coeffs = List.map (fun (j, v) -> (j, -.v)) r.coeffs in
          let op = match r.op with Le -> Ge | Ge -> Le | Eq -> Eq in
          { coeffs; op; rhs = -.r.rhs }
        end
        else r)
      rows
  in
  (* Count slack (Le), surplus (Ge) and artificial (Ge, Eq) columns. *)
  let n_slack = Array.fold_left (fun acc r -> match r.op with Le | Ge -> acc + 1 | Eq -> acc) 0 norm in
  let n_art = Array.fold_left (fun acc r -> match r.op with Ge | Eq -> acc + 1 | Le -> acc) 0 norm in
  let total = n + n_slack + n_art in
  let t =
    {
      a = Array.make_matrix m total 0.0;
      b = Array.make m 0.0;
      cost = Array.make total 0.0;
      z = 0.0;
      basis = Array.make m (-1);
      m;
      total;
    }
  in
  let art_start = n + n_slack in
  let slack_idx = ref n in
  let art_idx = ref art_start in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (j, v) ->
          assert (j >= 0 && j < n);
          t.a.(i).(j) <- t.a.(i).(j) +. v)
        r.coeffs;
      t.b.(i) <- r.rhs;
      (match r.op with
      | Le ->
        t.a.(i).(!slack_idx) <- 1.0;
        t.basis.(i) <- !slack_idx;
        incr slack_idx
      | Ge ->
        t.a.(i).(!slack_idx) <- -1.0;
        incr slack_idx;
        t.a.(i).(!art_idx) <- 1.0;
        t.basis.(i) <- !art_idx;
        incr art_idx
      | Eq ->
        t.a.(i).(!art_idx) <- 1.0;
        t.basis.(i) <- !art_idx;
        incr art_idx))
    norm;
  (* A generous bound scaled by problem size: reaching it means the
     basis is cycling, which Bland's rule should prevent. *)
  let max_iters = 2000 + (200 * (m + total)) in
  (* Phase 1: minimize sum of artificials.  Reduced costs = -(sum of
     rows with artificial basics). *)
  if n_art > 0 then begin
    for j = 0 to total - 1 do
      t.cost.(j) <- 0.0
    done;
    for i = 0 to m - 1 do
      if t.basis.(i) >= art_start then begin
        for j = 0 to total - 1 do
          t.cost.(j) <- t.cost.(j) -. t.a.(i).(j)
        done;
        t.z <- t.z -. t.b.(i)
      end
    done;
    (* Artificial columns themselves have cost 1; after pricing out the
       basics their reduced cost is 0, matching the tableau invariant. *)
    for j = art_start to total - 1 do
      t.cost.(j) <- t.cost.(j) +. 1.0
    done;
    (match run_phase t ~allowed:(fun _ -> true) ~max_iters with
    | Phase_unbounded -> assert false (* phase-1 objective bounded below by 0 *)
    | Phase_optimal -> ());
    if -.t.z > 1e-7 then raise Exit
  end;
  (* Drive remaining artificials out of the basis (degenerate rows). *)
  for i = 0 to m - 1 do
    if t.basis.(i) >= art_start then begin
      let rec find j =
        if j >= art_start then -1
        else if Float.abs t.a.(i).(j) > eps then j
        else find (j + 1)
      in
      match find 0 with
      | -1 -> () (* redundant row; stays with artificial at value 0 *)
      | j -> pivot t ~row:i ~col:j
    end
  done;
  (* Phase 2: restore the real objective, priced out over the basis. *)
  for j = 0 to total - 1 do
    t.cost.(j) <- (if j < n then p.objective.(j) else 0.0)
  done;
  t.z <- 0.0;
  for i = 0 to m - 1 do
    let bj = t.basis.(i) in
    if bj < total then begin
      let cb = if bj < n then p.objective.(bj) else 0.0 in
      if Float.abs cb > 0.0 then begin
        for j = 0 to total - 1 do
          t.cost.(j) <- t.cost.(j) -. (cb *. t.a.(i).(j))
        done;
        t.z <- t.z -. (cb *. t.b.(i))
      end
    end
  done;
  let allowed j = j < art_start in
  match run_phase t ~allowed ~max_iters with
  | Phase_unbounded -> Unbounded
  | Phase_optimal ->
    let x = Array.make n 0.0 in
    for i = 0 to m - 1 do
      if t.basis.(i) < n then x.(t.basis.(i)) <- t.b.(i)
    done;
    let objective = Array.fold_left ( +. ) 0.0 (Array.mapi (fun j v -> p.objective.(j) *. v) x) in
    Optimal { x; objective }

let solve p = try solve p with Exit -> Infeasible
