type rule = Absolute | Per_cost

let candidates (inputs : Inputs.t) =
  let n = Inputs.n_sites inputs in
  let base = Topology.fiber_baseline inputs in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if inputs.mw_km.(i).(j) < base.(i).(j) then acc := (i, j) :: !acc
    done
  done;
  List.rev !acc

(* Benefit of adding link (i,j) to the metric [d]: total decrease of
   the objective sum_st w_st * D_st where w_st = h_st / d_st. *)
let benefit (inputs : Inputs.t) w d (i, j) =
  let n = Inputs.n_sites inputs in
  let mw = inputs.mw_km.(i).(j) in
  let total = ref 0.0 in
  for s = 0 to n - 1 do
    let dsi = d.(s).(i) and dsj = d.(s).(j) in
    let ws = w.(s) and ds = d.(s) in
    for t = 0 to n - 1 do
      let wst = ws.(t) in
      if wst > 0.0 then begin
        let alt = Float.min (dsi +. mw +. d.(j).(t)) (dsj +. mw +. d.(i).(t)) in
        let cur = ds.(t) in
        if alt < cur then total := !total +. (wst *. (cur -. alt))
      end
    done
  done;
  !total

let weight_matrix (inputs : Inputs.t) =
  let n = Inputs.n_sites inputs in
  let w = Array.make_matrix n n 0.0 in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && inputs.geodesic_km.(s).(t) > 0.0 then
        w.(s).(t) <- inputs.traffic.(s).(t) /. inputs.geodesic_km.(s).(t)
    done
  done;
  w

let score rule cost b = match rule with Absolute -> b | Per_cost -> b /. float_of_int (max 1 cost)

(* Initial scoring of every affordable candidate against the metric
   [d].  Each candidate's benefit is a self-contained O(n^2) scan, so
   the slots fill in parallel; entry [idx] is [Some (cost, benefit)]
   for candidates worth pushing, in the same order as [cands]. *)
let score_candidates (inputs : Inputs.t) w d ~budget cands =
  Cisp_util.Telemetry.with_span "greedy.score" (fun () ->
      let n = Array.length cands in
      Cisp_util.Telemetry.add "greedy.candidates" n;
      let scored = Array.make n None in
      Cisp_util.Pool.parallel_for ~n (fun idx ->
          let i, j = cands.(idx) in
          let c = Topology.link_cost inputs i j in
          if c <= budget then begin
            let b = benefit inputs w d (i, j) in
            if b > 1e-15 then scored.(idx) <- Some (c, b)
          end);
      scored)

let design_ordered ?(rule = Per_cost) (inputs : Inputs.t) ~budget =
  Cisp_util.Telemetry.with_span "greedy.design" (fun () ->
  let cands = Array.of_list (candidates inputs) in
  let w = weight_matrix inputs in
  let d = ref (Topology.fiber_baseline inputs) in
  let topo = ref (Topology.empty inputs) in
  (* Lazy greedy: heap of candidate indices keyed by negated (possibly
     stale) score.  The scores come from the parallel pass; pushing in
     candidate order keeps the heap bit-identical to a sequential
     build. *)
  let heap = Cisp_graph.Heap.create () in
  Array.iteri
    (fun idx scored ->
      match scored with
      | None -> ()
      | Some (c, b) -> Cisp_graph.Heap.push heap (-.score rule c b) idx)
    (score_candidates inputs w !d ~budget cands);
  let spent = ref 0 in
  let order = ref [] in
  let rec step () =
    if Cisp_graph.Heap.length heap > 0 then begin
      let idx = Cisp_graph.Heap.pop_min heap in
      let i, j = cands.(idx) in
      let c = Topology.link_cost inputs i j in
      if !spent + c > budget then step () (* cannot afford; try others *)
      else begin
        let b = benefit inputs w !d (i, j) in
        if b <= 1e-15 then step ()
        else begin
          let s = score rule c b in
          let next_best =
            if Cisp_graph.Heap.length heap > 0 then -.Cisp_graph.Heap.min_key heap
            else neg_infinity
          in
          if s >= next_best -. 1e-15 then begin
            (* Fresh score still wins: take it. *)
            topo := Topology.add !topo (i, j);
            order := (i, j) :: !order;
            spent := !spent + c;
            d := Topology.distances_incremental inputs !d (i, j);
            step ()
          end
          else begin
            Cisp_graph.Heap.push heap (-.s) idx;
            step ()
          end
        end
      end
    end
  in
  step ();
  if Cisp_util.Telemetry.enabled () then
    Cisp_util.Telemetry.add "greedy.links_built" (List.length !order);
  (!topo, List.rev !order))

let design ?rule inputs ~budget = fst (design_ordered ?rule inputs ~budget)

let candidate_set ?rule inputs ~budget ~inflation =
  let inflated = int_of_float (Float.ceil (float_of_int budget *. inflation)) in
  snd (design_ordered ?rule inputs ~budget:inflated)
