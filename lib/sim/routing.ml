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

let all_alive _ _ = true

(* One edge per site pair: the built MW link when it is the faster
   (and surviving) medium, else the fiber edge — consistent with
   {!Builder.build}.  [mw_ok] models failed links: their pair falls
   back to fiber when the fiber pair exists. *)
let edges_of_model ?(mw_ok = all_alive) m =
  let n = Inputs.n_sites m.inputs in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let mw = m.inputs.mw_km.(i).(j) and fib = m.inputs.fiber_km.(i).(j) in
      if Topology.is_built m.topology i j && mw < fib && mw_ok i j then
        edges :=
          { u = i; v = j; latency_km = mw; capacity_gbps = m.mw_gbps (i, j); load_gbps = 0.0 }
          :: !edges
      else if fib < infinity then
        edges :=
          { u = i; v = j; latency_km = fib; capacity_gbps = m.fiber_gbps; load_gbps = 0.0 }
          :: !edges
    done
  done;
  Array.of_list !edges

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

let paths ?(mw_ok = all_alive) m scheme ~demands_gbps =
  let n = Inputs.n_sites m.inputs in
  let edges = edges_of_model ~mw_ok m in
  let table : (int * int, int array) Hashtbl.t = Hashtbl.create 1024 in
  (match scheme with
  | Shortest_path | K_disjoint_split _ | K_disjoint_failover _ ->
    (* One Dijkstra per source with demand over static latency costs
       (parallel on the pool).  The multipath schemes route their
       primary (= shortest) path here; the full precomputed path sets
       live in {!multipath_table}. *)
    let g = build_graph n edges (fun e -> e.latency_km) in
    let demand s t = t <> s && demands_gbps.(s).(t) > 0.0 in
    let has_demand s = List.exists (demand s) (List.init n Fun.id) in
    let sources = Array.of_list (List.filter has_demand (List.init n Fun.id)) in
    let rows = Dijkstra.all_pairs_results g ~sources in
    Array.iteri
      (fun k s ->
        for t = 0 to n - 1 do
          if demand s t then
            match Dijkstra.path rows.(k) ~dst:t with
            | [] -> ()
            | p -> Hashtbl.replace table (s, t) (Array.of_list p)
        done)
      sources
  | Min_max_utilization | Throughput_optimal | Bounded_stretch _ ->
    (* Sequential congestion-aware assignment, big demands first. *)
    let commodities = ref [] in
    for s = 0 to n - 1 do
      for t = 0 to n - 1 do
        if t <> s && demands_gbps.(s).(t) > 0.0 then
          commodities := (demands_gbps.(s).(t), s, t) :: !commodities
      done
    done;
    let sorted = List.sort (fun (a, _, _) (b, _, _) -> Float.compare b a) !commodities in
    (* Cheapest-capacity edge per node pair, for charging loads. *)
    let by_pair : (int * int, edge_info) Hashtbl.t = Hashtbl.create 1024 in
    Array.iter
      (fun e ->
        let k = norm (e.u, e.v) in
        match Hashtbl.find_opt by_pair k with
        | Some prev when prev.latency_km <= e.latency_km -> ()
        | _ -> Hashtbl.replace by_pair k e)
      edges;
    (* Rebuilding the cost graph per commodity is wasteful; costs only
       drift as load accumulates, so refresh periodically. *)
    let g = ref (build_graph n edges (edge_cost scheme)) in
    let static_g = lazy (build_graph n edges (fun e -> e.latency_km)) in
    let since_refresh = ref 0 in
    List.iter
      (fun (demand, s, t) ->
        incr since_refresh;
        if !since_refresh >= 32 then begin
          g := build_graph n edges (edge_cost scheme);
          since_refresh := 0
        end;
        let latency_of arr =
          let acc = ref 0.0 in
          for k = 0 to Array.length arr - 2 do
            match Hashtbl.find_opt by_pair (norm (arr.(k), arr.(k + 1))) with
            | Some e -> acc := !acc +. e.latency_km
            | None -> ()
          done;
          !acc
        in
        match Dijkstra.shortest_path !g ~src:s ~dst:t with
        | None -> ()
        | Some (_, p) ->
          let arr = Array.of_list p in
          let arr =
            match scheme with
            | Bounded_stretch bound -> begin
              (* Fall back to the pure shortest path when the spread
                 route violates the commodity's latency budget. *)
              match Dijkstra.shortest_path (Lazy.force static_g) ~src:s ~dst:t with
              | Some (l0, p0) when latency_of arr > bound *. l0 -> Array.of_list p0
              | Some _ | None -> arr
            end
            | Shortest_path | Min_max_utilization | Throughput_optimal
            | K_disjoint_split _ | K_disjoint_failover _ -> arr
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
      let lat = ref 0.0 in
      for k = 0 to Array.length route - 2 do
        let a = route.(k) and b = route.(k + 1) in
        let mw = m.inputs.mw_km.(a).(b) in
        let via_mw = Topology.is_built m.topology a b && mw < m.inputs.fiber_km.(a).(b) in
        lat := !lat +. (if via_mw then mw else m.inputs.fiber_km.(a).(b))
      done;
      num := !num +. (d *. Cisp_util.Units.ms_of_km_at_c !lat);
      den := !den +. d)
    table;
  if Float.equal !den 0.0 then 0.0 else !num /. !den

(* ---------- multipath & fast local failover ---------- *)

type medium = Mw | Fiber

type mp_path = {
  nodes : int array;
  media : medium array;
  latency_km : float;
}

type multipath = { routes : mp_path array; split : float array }

(* Latency per unordered pair and medium, [infinity] where absent.
   MW entries exist only where the built link is the faster medium,
   consistent with {!edges_of_model}. *)
let medium_tables m =
  let n = Inputs.n_sites m.inputs in
  let mw = Array.make_matrix n n infinity in
  let fib = Array.make_matrix n n infinity in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let mk = m.inputs.mw_km.(i).(j) and fk = m.inputs.fiber_km.(i).(j) in
      if Topology.is_built m.topology i j && mk < fk then begin
        mw.(i).(j) <- mk;
        mw.(j).(i) <- mk
      end;
      if fk < infinity then begin
        fib.(i).(j) <- fk;
        fib.(j).(i) <- fk
      end
    done
  done;
  (mw, fib)

(* The combined MW+fiber multigraph: parallel edges per pair where
   both media exist, tagged 2*pid (MW) / 2*pid+1 (fiber) so the
   disjoint rounds can consume one medium at a time. *)
let multigraph n ~mw ~fib =
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let pid = (i * n) + j in
      if mw.(i).(j) < infinity then Graph.add_undirected ~tag:(2 * pid) g i j mw.(i).(j);
      if fib.(i).(j) < infinity then Graph.add_undirected ~tag:((2 * pid) + 1) g i j fib.(i).(j)
    done
  done;
  g

(* Media of a node path given which tagged parallel edges are still
   alive: each hop uses MW when its MW edge exists and is un-consumed
   (MW is only present where it is the lighter medium, so Dijkstra
   used it), else fiber. *)
let mp_of_nodes ~mw ~fib ~killed n nodes =
  let hops = max 0 (Array.length nodes - 1) in
  let media = Array.make hops Fiber in
  let lat = ref 0.0 in
  for h = 0 to hops - 1 do
    let a = nodes.(h) and b = nodes.(h + 1) in
    let i = min a b and j = max a b in
    let pid = (i * n) + j in
    if mw.(i).(j) < infinity && not (Hashtbl.mem killed (2 * pid)) then begin
      media.(h) <- Mw;
      lat := !lat +. mw.(i).(j)
    end
    else lat := !lat +. fib.(i).(j)
  done;
  { nodes; media; latency_km = !lat }

(* Successive medium-aware edge-disjoint shortest paths for one
   commodity: each round reports the shortest surviving route, then
   consumes exactly the parallel edges (pair, medium) it used — a
   backup may take the fiber pair under a consumed MW edge. *)
let disjoint_routes ~k ~src ~dst base n ~mw ~fib =
  let killed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let acc = ref [] in
  let remove work (_, path) =
    let nodes = Array.of_list path in
    let mp = mp_of_nodes ~mw ~fib ~killed n nodes in
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
  let n = Inputs.n_sites m.inputs in
  let mw, fib = medium_tables m in
  let table : (int * int, multipath) Hashtbl.t = Hashtbl.create 1024 in
  (match scheme with
  | K_disjoint_split k | K_disjoint_failover k ->
    if k <= 0 then invalid_arg "Routing.multipath_table: k <= 0";
    let base = multigraph n ~mw ~fib in
    for s = 0 to n - 1 do
      for t = 0 to n - 1 do
        if t <> s && demands_gbps.(s).(t) > 0.0 then begin
          let routes = disjoint_routes ~k ~src:s ~dst:t base n ~mw ~fib in
          if Array.length routes > 0 then begin
            let split =
              match scheme with
              | K_disjoint_split _ ->
                let inv = Array.map (fun p -> 1.0 /. Float.max 1e-9 p.latency_km) routes in
                let total = Array.fold_left ( +. ) 0.0 inv in
                Array.map (fun w -> w /. total) inv
              | _ -> Array.init (Array.length routes) (fun i -> if i = 0 then 1.0 else 0.0)
            in
            Hashtbl.replace table (s, t) { routes; split }
          end
        end
      done
    done
  | Shortest_path | Min_max_utilization | Throughput_optimal | Bounded_stretch _ ->
    let no_kills : (int, unit) Hashtbl.t = Hashtbl.create 1 in
    Cisp_util.Tbl.iter_sorted
      (fun key nodes ->
        let mp = mp_of_nodes ~mw ~fib ~killed:no_kills n nodes in
        Hashtbl.replace table key { routes = [| mp |]; split = [| 1.0 |] })
      (paths m scheme ~demands_gbps));
  table

let route_alive ~mw_ok p =
  let ok = ref true in
  Array.iteri
    (fun h medium ->
      match medium with
      | Mw -> if not (mw_ok p.nodes.(h) p.nodes.(h + 1)) then ok := false
      | Fiber -> ())
    p.media;
  !ok

let select_routes mp ~mw_ok =
  let alive = ref [] in
  Array.iteri (fun i p -> if route_alive ~mw_ok p then alive := (i, p) :: !alive) mp.routes;
  let alive = Array.of_list (List.rev !alive) in
  if Array.length alive = 0 then [||]
  else begin
    let total = Array.fold_left (fun acc (i, _) -> acc +. mp.split.(i)) 0.0 alive in
    if total > 0.0 then Array.map (fun (i, p) -> (p, mp.split.(i) /. total)) alive
    else Array.mapi (fun j (_, p) -> (p, if j = 0 then 1.0 else 0.0)) alive
  end

let route_latency_km m ~mw_ok nodes =
  let acc = ref 0.0 in
  for h = 0 to Array.length nodes - 2 do
    let a = nodes.(h) and b = nodes.(h + 1) in
    let mk = m.inputs.mw_km.(a).(b) and fk = m.inputs.fiber_km.(a).(b) in
    let via_mw = Topology.is_built m.topology a b && mk < fk && mw_ok a b in
    acc := !acc +. (if via_mw then mk else fk)
  done;
  !acc

let multipath_mean_latency_ms table ~demands_gbps =
  let num = ref 0.0 and den = ref 0.0 in
  Cisp_util.Tbl.iter_sorted
    (fun (s, t) mp ->
      let d = demands_gbps.(s).(t) in
      let lat = ref 0.0 in
      Array.iteri (fun i p -> lat := !lat +. (mp.split.(i) *. p.latency_km)) mp.routes;
      num := !num +. (d *. Cisp_util.Units.ms_of_km_at_c !lat);
      den := !den +. d)
    table;
  if Float.equal !den 0.0 then 0.0 else !num /. !den
