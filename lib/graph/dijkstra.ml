type result = { dist : float array; prev : int array }

(* Relax every edge out of the settled node [u] at distance [d]:
   structural recursion over the adjacency list rather than
   [Graph.iter_succ], so the relaxation sweep builds no closure — the
   APSP rows run inside pool workers under a per-iteration allocation
   budget (L11). *)
let rec relax heap dist prev d u = function
  | [] -> ()
  | (e : Graph.edge) :: rest ->
    let nd = d +. e.Graph.weight in
    if nd < dist.(e.Graph.dst) then begin
      dist.(e.Graph.dst) <- nd;
      prev.(e.Graph.dst) <- u;
      Heap.push heap nd e.Graph.dst
    end;
    relax heap dist prev d u rest

(* [stop_at] is a node index, or -1 for a full single-source run, so
   the loop tests no option per pop. *)
let run_internal g ~src ~stop_at =
  let n = Graph.node_count g in
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create () in
  dist.(src) <- 0.0;
  Heap.push heap 0.0 src;
  let finished = ref false in
  while (not !finished) && Heap.length heap > 0 do
    let d = Heap.min_key heap in
    let u = Heap.pop_min heap in
    if not settled.(u) then begin
      settled.(u) <- true;
      if u = stop_at then finished := true
      else relax heap dist prev d u (Graph.succ g u)
    end
  done;
  { dist; prev }

let run g ~src = run_internal g ~src ~stop_at:(-1)
let run_to g ~src ~dst = run_internal g ~src ~stop_at:dst

let path r ~dst =
  if Float.equal r.dist.(dst) infinity then []
  else begin
    let rec build acc v = if v = -1 then acc else build (v :: acc) r.prev.(v) in
    build [] dst
  end

let shortest_path g ~src ~dst =
  let r = run_to g ~src ~dst in
  if Float.equal r.dist.(dst) infinity then None else Some (r.dist.(dst), path r ~dst)

(* Each source's Dijkstra is independent and only reads the graph, so
   the rows compute in parallel; every row is bit-identical to the
   sequential run.  The weather replay calls this from inside a pool
   body ([Scenarios.run] -> [Routing.paths] -> [Topology.routes]),
   where the loop runs on the calling domain without touching the
   pool registry. *)
let all_pairs_results g ~sources =
  Cisp_util.Telemetry.with_span "apsp" (fun () ->
      let n = Array.length sources in
      Cisp_util.Telemetry.add "apsp.sources" n;
      let out = Array.make n { dist = [||]; prev = [||] } in
      (* One source is a whole Dijkstra — thousands of heap operations
         — so the finest (default) chunk wins: a claim of the shared
         counter is noise next to the work it buys, and coarser chunks
         would only worsen load balance across sources of uneven
         degree. *)
      Cisp_util.Pool.parallel_for ~n (fun k ->
          out.(k) <- run g ~src:sources.(k));
      out)

let all_pairs g =
  let n = Graph.node_count g in
  let rs = all_pairs_results g ~sources:(Array.init n Fun.id) in
  Array.map (fun r -> r.dist) rs
