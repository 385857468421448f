(* Node states. *)
let unsettled = '\000'
let settled = '\001'
let affected = '\002'

type t = {
  graph : Graph.t;
  dist : float array;
  prev : int array;
  via : int array;
  state : Bytes.t;
  order : int array;
  mutable n_order : int;
  heap : Heap.t;
  repaired : int array;
  mutable settles : int;
}

let create graph =
  let n = Graph.node_count graph in
  {
    graph;
    dist = Array.make n infinity;
    prev = Array.make n (-1);
    via = Array.make n (-1);
    state = Bytes.make n unsettled;
    order = Array.make n 0;
    n_order = 0;
    heap = Heap.create ();
    repaired = Array.make n 0;
    settles = 0;
  }

(* The one relaxation loop.  Settle nodes until the heap drains or
   [stop_at] (a node, or -1 for none) settles, relaxing every arc
   whose edge is not removed.  A node's arcs are read in the graph's
   order and a distance improves only strictly, which is the tie
   rule. *)
let settle t ~stop_at =
  let g = t.graph in
  let finished = ref false in
  while (not !finished) && Heap.length t.heap > 0 do
    let d = Heap.min_key t.heap in
    let u = Heap.pop_min t.heap in
    if Bytes.get t.state u = unsettled then begin
      Bytes.set t.state u settled;
      t.order.(t.n_order) <- u;
      t.n_order <- t.n_order + 1;
      t.settles <- t.settles + 1;
      if u = stop_at then finished := true
      else
        for a = g.Graph.first.(u) to g.Graph.first.(u + 1) - 1 do
          let v = g.Graph.arc_dst.(a) in
          let nd = d +. g.Graph.arc_weight.(a) in
          if nd < t.dist.(v) && not (Graph.is_removed g g.Graph.arc_edge.(a)) then begin
            t.dist.(v) <- nd;
            t.prev.(v) <- u;
            t.via.(v) <- g.Graph.arc_edge.(a);
            Heap.push t.heap nd v
          end
        done
    end
  done

let start t ~src ~stop_at =
  t.dist.(src) <- 0.0;
  Heap.push t.heap 0.0 src;
  settle t ~stop_at

let search t ~src =
  Array.fill t.dist 0 (Array.length t.dist) infinity;
  Array.fill t.prev 0 (Array.length t.prev) (-1);
  Array.fill t.via 0 (Array.length t.via) (-1);
  Bytes.fill t.state 0 (Bytes.length t.state) unsettled;
  t.n_order <- 0;
  start t ~src ~stop_at:(-1)

let run_to g ~src ~dst =
  let t = create g in
  start t ~src ~stop_at:dst;
  t

let run g ~src = run_to g ~src ~dst:(-1)

(* The nodes whose tree path crosses a removed edge are found in one
   pass in settle order (a parent precedes its children) and leave the
   tree; each takes its best distance through a settled neighbour and
   is settled again.  Every other node keeps its distance, which
   removing edges cannot lower. *)
let repair t =
  let g = t.graph in
  let n_aff = ref 0 and kept = ref 0 in
  for i = 0 to t.n_order - 1 do
    let v = t.order.(i) in
    if
      t.via.(v) >= 0
      && (Bytes.get t.state t.prev.(v) = affected || Graph.is_removed g t.via.(v))
    then begin
      Bytes.set t.state v affected;
      t.repaired.(!n_aff) <- v;
      incr n_aff
    end
    else begin
      t.order.(!kept) <- v;
      incr kept
    end
  done;
  t.n_order <- !kept;
  for i = 0 to !n_aff - 1 do
    let v = t.repaired.(i) in
    Bytes.set t.state v unsettled;
    t.dist.(v) <- infinity;
    t.prev.(v) <- -1;
    t.via.(v) <- -1;
    for a = g.Graph.first.(v) to g.Graph.first.(v + 1) - 1 do
      let u = g.Graph.arc_dst.(a) in
      if Bytes.get t.state u = settled then begin
        let nd = t.dist.(u) +. g.Graph.arc_weight.(a) in
        if nd < t.dist.(v) && not (Graph.is_removed g g.Graph.arc_edge.(a)) then begin
          t.dist.(v) <- nd;
          t.prev.(v) <- u;
          t.via.(v) <- g.Graph.arc_edge.(a)
        end
      end
    done;
    if t.dist.(v) < infinity then Heap.push t.heap t.dist.(v) v
  done;
  settle t ~stop_at:(-1)

let path t ~dst =
  if Float.equal t.dist.(dst) infinity then []
  else begin
    let rec build acc v = if v = -1 then acc else build (v :: acc) t.prev.(v) in
    build [] dst
  end

let path_edges t ~dst =
  let rec build acc v = if t.via.(v) = -1 then acc else build (t.via.(v) :: acc) t.prev.(v) in
  build [] dst

let shortest_path g ~src ~dst =
  let t = run_to g ~src ~dst in
  if Float.equal t.dist.(dst) infinity then None else Some (t.dist.(dst), path t ~dst)

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
      let out = Array.make n (create g) in
      (* One source is a whole Dijkstra — thousands of heap operations
         — so the finest (default) chunk wins: a claim of the shared
         counter is noise next to the work it buys, and coarser chunks
         would only worsen load balance across sources of uneven
         degree. *)
      Cisp_util.Pool.parallel_for ~n (fun k -> out.(k) <- run g ~src:sources.(k));
      out)

let all_pairs g =
  let n = Graph.node_count g in
  let rs = all_pairs_results g ~sources:(Array.init n Fun.id) in
  Array.map (fun r -> r.dist) rs
