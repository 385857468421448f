module Inputs = Cisp_design.Inputs
module Topology = Cisp_design.Topology
module Graph = Cisp_graph.Graph
module Dijkstra = Cisp_graph.Dijkstra
module Multipath = Cisp_graph.Multipath

type scheme =
  | Shortest_path
  | Min_max_utilization
  | Throughput_optimal
  | Bounded_stretch of float
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

let norm (i, j) = if i < j then (i, j) else (j, i)

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

let build_graph n edges cost =
  let g = Graph.create n in
  Array.iteri
    (fun idx e ->
      let w = cost e in
      Graph.add_edge ~tag:idx g e.u e.v w;
      Graph.add_edge ~tag:idx g e.v e.u w)
    edges;
  g

let edge_cost scheme e =
  let rho = Float.min 0.999 (e.load_gbps /. Float.max 1e-9 e.capacity_gbps) in
  match scheme with
  | Shortest_path | K_disjoint_split _ | K_disjoint_failover _ -> e.latency_km
  | Bounded_stretch _ | Min_max_utilization ->
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

let rec paths m scheme ~demands_gbps =
  let table : (int * int, int array) Hashtbl.t = Hashtbl.create 1024 in
  (match scheme with
  | Shortest_path | K_disjoint_split _ | K_disjoint_failover _ ->
    (* The multipath schemes route their primary (= shortest) path
       here; the full precomputed path sets live in
       {!multipath_table}. *)
    List.iter
      (fun (st, route) -> Hashtbl.replace table st route)
      (Topology.routes m.topology ~demands:demands_gbps)
  | Min_max_utilization | Throughput_optimal | Bounded_stretch _ ->
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
    (* The edge of each pair, for charging loads. *)
    let by_pair : (int * int, edge_info) Hashtbl.t = Hashtbl.create 1024 in
    Array.iter (fun e -> Hashtbl.replace by_pair (e.u, e.v) e) edges;
    (* Bounded_stretch falls back to the commodity's shortest route. *)
    let shortest =
      match scheme with
      | Bounded_stretch _ -> paths m Shortest_path ~demands_gbps
      | Shortest_path | Min_max_utilization | Throughput_optimal
      | K_disjoint_split _ | K_disjoint_failover _ -> Hashtbl.create 1
    in
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
        match Dijkstra.shortest_path !g ~src:s ~dst:t with
        | None -> ()
        | Some (_, p) ->
          let arr = Array.of_list p in
          let arr =
            match scheme, Hashtbl.find_opt shortest (s, t) with
            | Bounded_stretch bound, Some p0
              when route_latency_km m arr > bound *. route_latency_km m p0 ->
              (* The spread route violates the commodity's latency
                 budget. *)
              p0
            | _ -> arr
          in
          Hashtbl.replace table (s, t) arr;
          for k = 0 to Array.length arr - 2 do
            match Hashtbl.find_opt by_pair (norm (arr.(k), arr.(k + 1))) with
            | Some e -> e.load_gbps <- e.load_gbps +. demand
            | None -> ()
          done)
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

(* The combined MW+fiber multigraph: parallel edges per pair where
   both media exist (MW only where {!Topology.rides_mw}), tagged
   2*pid (MW) / 2*pid+1 (fiber) so the disjoint rounds can consume
   one medium at a time. *)
let multigraph (topo : Topology.t) n =
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let pid = (i * n) + j in
      if Topology.rides_mw topo i j then
        Graph.add_undirected ~tag:(2 * pid) g i j topo.inputs.mw_km.(i).(j);
      let fk = topo.inputs.fiber_km.(i).(j) in
      if fk < infinity then Graph.add_undirected ~tag:((2 * pid) + 1) g i j fk
    done
  done;
  g

(* Media of a node path given which tagged parallel edges are still
   alive: each hop uses MW when its MW edge exists and is un-consumed
   (MW is only present where it is the lighter medium, so Dijkstra
   used it), else fiber. *)
let mp_of_nodes (topo : Topology.t) ~killed n nodes =
  let hops = max 0 (Array.length nodes - 1) in
  let media = Array.make hops Fiber in
  let lat = ref 0.0 in
  for h = 0 to hops - 1 do
    let a = nodes.(h) and b = nodes.(h + 1) in
    let i = min a b and j = max a b in
    if Topology.rides_mw topo i j && not (Hashtbl.mem killed (2 * ((i * n) + j))) then begin
      media.(h) <- Mw;
      lat := !lat +. topo.inputs.mw_km.(i).(j)
    end
    else lat := !lat +. topo.inputs.fiber_km.(i).(j)
  done;
  { nodes; media; latency_km = !lat }

(* Successive medium-aware edge-disjoint shortest paths for one
   commodity: each round reports the shortest surviving route, then
   consumes exactly the parallel edges (pair, medium) it used — a
   backup may take the fiber pair under a consumed MW edge. *)
let disjoint_routes ~k ~src ~dst base n topo =
  let killed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let acc = ref [] in
  let remove work (_, path) =
    let nodes = Array.of_list path in
    let mp = mp_of_nodes topo ~killed n nodes in
    acc := mp :: !acc;
    Array.iteri
      (fun h medium ->
        let a = nodes.(h) and b = nodes.(h + 1) in
        let pid = (min a b * n) + max a b in
        let tag = match medium with Mw -> 2 * pid | Fiber -> (2 * pid) + 1 in
        Hashtbl.replace killed tag ())
      mp.media;
    Graph.remove_edges work (fun _ e -> not (Hashtbl.mem killed e.Graph.tag))
  in
  ignore (Multipath.successive base ~src ~dst ~k ~remove);
  Array.of_list (List.rev !acc)

let multipath_table m scheme ~demands_gbps =
  let k, split_load =
    match scheme with
    | K_disjoint_split k -> (k, true)
    | K_disjoint_failover k -> (k, false)
    | Shortest_path | Min_max_utilization | Throughput_optimal | Bounded_stretch _ ->
      invalid_arg "Routing.multipath_table: not a k-disjoint scheme"
  in
  if k <= 0 then invalid_arg "Routing.multipath_table: k <= 0";
  let n = Inputs.n_sites m.inputs in
  let base = multigraph m.topology n in
  let table : (int * int, multipath) Hashtbl.t = Hashtbl.create 1024 in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if t <> s && demands_gbps.(s).(t) > 0.0 then begin
        let routes = disjoint_routes ~k ~src:s ~dst:t base n m.topology in
        if Array.length routes > 0 then begin
          let split =
            if split_load then begin
              let inv = Array.map (fun p -> 1.0 /. Float.max 1e-9 p.latency_km) routes in
              let total = Array.fold_left ( +. ) 0.0 inv in
              Array.map (fun w -> w /. total) inv
            end
            else Array.init (Array.length routes) (fun i -> if i = 0 then 1.0 else 0.0)
          in
          Hashtbl.replace table (s, t) { routes; split }
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

let select_routes mp ~up =
  let alive = ref [] in
  Array.iteri (fun i p -> if route_alive ~up p then alive := (i, p) :: !alive) mp.routes;
  let alive = Array.of_list (List.rev !alive) in
  if Array.length alive = 0 then [||]
  else begin
    let total = Array.fold_left (fun acc (i, _) -> acc +. mp.split.(i)) 0.0 alive in
    if total > 0.0 then Array.map (fun (i, p) -> (p, mp.split.(i) /. total)) alive
    else Array.mapi (fun j (_, p) -> (p, if j = 0 then 1.0 else 0.0)) alive
  end
