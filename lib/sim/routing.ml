module Inputs = Cisp_design.Inputs
module Topology = Cisp_design.Topology
module Graph = Cisp_graph.Graph
module Dijkstra = Cisp_graph.Dijkstra
module Multipath = Cisp_graph.Multipath

type scheme =
  | Shortest_path
  | Min_max_utilization
  | Throughput_optimal
  | K_disjoint_split of int
  | K_disjoint_failover of int

type network_model = {
  inputs : Inputs.t;
  topology : Topology.t;
  mw_gbps : (int * int) -> float;
  fiber_gbps : float;
}

type edge_info = {
  u : int;
  v : int;
  latency_km : float;
  capacity_gbps : float;
  mutable load_gbps : float;
}

(* One edge per connected site pair, in {!Topology.edges} order, with
   the length and capacity of the medium {!Topology.rides_mw} picks. *)
let edges_of_model m =
  Array.map
    (fun (i, j) ->
      let capacity_gbps =
        if Topology.rides_mw m.topology i j then m.mw_gbps (i, j) else m.fiber_gbps
      in
      { u = i; v = j; latency_km = Topology.hop_km m.topology i j; capacity_gbps; load_gbps = 0.0 })
    (Topology.edges m.topology)

(* Edge [idx] of the graph is [edges.(idx)], at [cost]. *)
let build_graph n edges cost =
  Graph.of_edges ~n (Array.map (fun e -> e.u) edges) (Array.map (fun e -> e.v) edges)
    (Array.map cost edges)

let edge_cost scheme e =
  let rho = Float.min 0.999 (e.load_gbps /. Float.max 1e-9 e.capacity_gbps) in
  match scheme with
  | Shortest_path | K_disjoint_split _ | K_disjoint_failover _ -> e.latency_km
  | Min_max_utilization ->
    (* Latency-aware but sharply congestion-averse. *)
    e.latency_km *. (1.0 +. (8.0 *. (rho ** 4.0))) +. (1e4 *. Float.max 0.0 (rho -. 0.95))
  | Throughput_optimal ->
    (* Congestion-proportional inflation of the latency metric: keeps
       paths short when idle, spills to parallel routes as links load
       up (maximizing admissible throughput). *)
    e.latency_km *. (1.0 +. (1.2 *. rho /. (1.0 -. rho)))

let route_latency_km m nodes =
  let acc = ref 0.0 in
  for h = 0 to Array.length nodes - 2 do
    acc := !acc +. Topology.hop_km m.topology nodes.(h) nodes.(h + 1)
  done;
  !acc

let paths m scheme ~demands_gbps =
  let table : (int * int, int array) Hashtbl.t = Hashtbl.create 1024 in
  (match scheme with
  | Shortest_path | K_disjoint_split _ | K_disjoint_failover _ ->
    (* The multipath schemes route their primary (= shortest) path
       here; the full precomputed path sets live in
       {!multipath_table}. *)
    List.iter
      (fun (st, route) -> Hashtbl.replace table st route)
      (Topology.routes m.topology ~demands:demands_gbps)
  | Min_max_utilization | Throughput_optimal ->
    (* Sequential congestion-aware assignment, big demands first. *)
    let n = Inputs.n_sites m.inputs in
    let edges = edges_of_model m in
    let commodities = ref [] in
    for s = 0 to n - 1 do
      for t = 0 to n - 1 do
        if t <> s && demands_gbps.(s).(t) > 0.0 then
          commodities := (demands_gbps.(s).(t), s, t) :: !commodities
      done
    done;
    let sorted = List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a) !commodities in
    (* Rebuilding the cost graph per commodity is wasteful; costs only
       drift as load accumulates, so refresh periodically. *)
    let g = ref (build_graph n edges (edge_cost scheme)) in
    let since_refresh = ref 0 in
    List.iter
      (fun (demand, s, t) ->
        incr since_refresh;
        if !since_refresh >= 32 then begin
          g := build_graph n edges (edge_cost scheme);
          since_refresh := 0
        end;
        let r = Dijkstra.run_to !g ~src:s ~dst:t in
        if r.Dijkstra.dist.(t) < infinity then begin
          Hashtbl.replace table (s, t) (Array.of_list (Dijkstra.path r ~dst:t));
          List.iter
            (fun idx -> edges.(idx).load_gbps <- edges.(idx).load_gbps +. demand)
            (Dijkstra.path_edges r ~dst:t)
        end)
      sorted);
  table

let mean_route_latency_ms m table ~demands_gbps =
  let num = ref 0.0 and den = ref 0.0 in
  Hashtbl.iter
    (fun (s, t) route ->
      let d = demands_gbps.(s).(t) in
      num := !num +. (d *. Cisp_util.Units.ms_of_km_at_c (route_latency_km m route));
      den := !den +. d)
    table;
  if Float.equal !den 0.0 then 0.0 else !num /. !den

(* ---------- multipath & fast local failover ---------- *)

type medium = Topology.medium = Mw | Fiber

type mp_path = {
  nodes : int array;
  media : medium array;
  latency_km : float;
}

type multipath = { routes : mp_path array; split : float array }

(* The combined MW+fiber multigraph: per pair, an MW edge where
   {!Topology.rides_mw} and a fiber edge where fiber reaches, so the
   disjoint rounds can consume one medium at a time; [media.(e)] is
   edge [e]'s medium. *)
let multigraph (topo : Topology.t) n =
  let cap = n * n in
  let u = Array.make cap 0 and v = Array.make cap 0 and km = Array.make cap 0.0 in
  let media = Array.make cap Fiber in
  let m = ref 0 in
  let add i j medium d =
    u.(!m) <- i;
    v.(!m) <- j;
    km.(!m) <- d;
    media.(!m) <- medium;
    incr m
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Topology.rides_mw topo i j then add i j Mw topo.inputs.mw_km.(i).(j);
      let fk = topo.inputs.fiber_km.(i).(j) in
      if fk < infinity then add i j Fiber fk
    done
  done;
  let sub a = Array.sub a 0 !m in
  (Graph.of_edges ~n (sub u) (sub v) (sub km), sub media)

(* Successive medium-aware edge-disjoint shortest paths for one
   commodity: each round reports the shortest surviving route, then
   removes exactly the edges (pair, medium) it used — a backup may
   take the fiber pair under a consumed MW edge. *)
let disjoint_routes ~k ~src ~dst (base, media) =
  let used = ref [] in
  let remove work edges =
    used := edges :: !used;
    List.iter (Graph.remove work) edges
  in
  let found = Multipath.successive base ~src ~dst ~k ~remove in
  Array.of_list
    (List.map2
       (fun (latency_km, nodes) edges ->
         {
           nodes = Array.of_list nodes;
           media = Array.of_list (List.map (fun e -> media.(e)) edges);
           latency_km;
         })
       found (List.rev !used))

let multipath_table m ~k ~demands_gbps =
  if k <= 0 then invalid_arg "Routing.multipath_table: k <= 0";
  let n = Inputs.n_sites m.inputs in
  let base = multigraph m.topology n in
  let table : (int * int, multipath) Hashtbl.t = Hashtbl.create 1024 in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if t <> s && demands_gbps.(s).(t) > 0.0 then begin
        let routes = disjoint_routes ~k ~src:s ~dst:t base in
        if Array.length routes > 0 then begin
          let inv = Array.map (fun p -> 1.0 /. Float.max 1e-9 p.latency_km) routes in
          let total = Array.fold_left ( +. ) 0.0 inv in
          Hashtbl.replace table (s, t) { routes; split = Array.map (fun w -> w /. total) inv }
        end
      end
    done
  done;
  table

(* A route survives while [up] still holds every MW link it rides;
   fiber hops never fail. *)
let route_alive ~up p =
  let ok = ref true in
  Array.iteri
    (fun h medium ->
      match medium with
      | Mw -> if not (Topology.is_built up p.nodes.(h) p.nodes.(h + 1)) then ok := false
      | Fiber -> ())
    p.media;
  !ok

let select_routes scheme mp ~up =
  match scheme with
  | K_disjoint_failover _ -> (
    match Array.find_opt (route_alive ~up) mp.routes with
    | Some p -> [| (p, 1.0) |]
    | None -> [||])
  | K_disjoint_split _ ->
    let alive = ref [] in
    Array.iteri (fun i p -> if route_alive ~up p then alive := (i, p) :: !alive) mp.routes;
    let alive = Array.of_list (List.rev !alive) in
    let total = Array.fold_left (fun acc (i, _) -> acc +. mp.split.(i)) 0.0 alive in
    Array.map (fun (i, p) -> (p, mp.split.(i) /. total)) alive
  | Shortest_path | Min_max_utilization | Throughput_optimal ->
    invalid_arg "Routing.select_routes: not a k-disjoint scheme"
