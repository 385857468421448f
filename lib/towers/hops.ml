module Geodesy = Cisp_geo.Geodesy
module Grid = Cisp_geo.Grid
module Dem_cache = Cisp_terrain.Dem_cache
module Los = Cisp_rf.Los
module Graph = Cisp_graph.Graph
module Heap = Cisp_graph.Heap
module City = Cisp_data.City
module Telemetry = Cisp_util.Telemetry

type config = { los_params : Los.params; height_fraction : float }

let default_config = { los_params = Los.default_params; height_fraction = 1.0 }

(* Antenna height at a site, and how far a site reaches for its first
   tower. *)
let site_antenna_m = 80.0
let site_attach_radius_km = 40.0

(* One verdict byte per candidate edge. *)
let untested = '\000'
let feasible = '\001'
let blocked = '\002'

(* The candidate hop graph, flat.  Candidate edge [e] joins nodes
   [edge_u.(e)] and [edge_v.(e)]; ids follow the listing order (tower
   [k] with each nearby tower [k' > k], then each site with its nearby
   towers), and [edge_u] is the endpoint listed first, the one a LOS
   test walks from.  Node [u]'s arcs are [first.(u) .. first.(u+1) - 1],
   in decreasing edge id: the adjacency order of [force_graph]'s graph,
   since [Graph.add_edge] prepends.  An arc carries its edge's
   great-circle length, so a search reads a node's arcs in sequence and
   looks up a verdict only for an arc that would improve a distance. *)
type candidates = {
  cache : Dem_cache.t;
  endpoints : Los.endpoint array;  (* per node *)
  site_params : Los.params;
  edge_u : int array;
  edge_v : int array;
  verdict : Bytes.t;
  first : int array;
  arc_dst : int array;
  arc_edge : int array;
  arc_km : float array;
}

type t = {
  config : config;
  sites : City.t array;
  towers : Tower.t array;
  n_sites : int;
  mutable feasible_hops : int;
  candidates : candidates;
}

let tower_node t k = t.n_sites + k
let is_tower_node t v = v >= t.n_sites

let node_position t node =
  if node < t.n_sites then t.sites.(node).City.coord
  else t.towers.(node - t.n_sites).Tower.position

let build ?(config = default_config) ~cache ~sites ~towers () =
  Telemetry.with_span "hops.build" (fun () ->
      let sites = Array.of_list sites in
      let towers = Array.of_list towers in
      let n_sites = Array.length sites in
      let n_towers = Array.length towers in
      let n = n_sites + n_towers in
      let position v =
        if v < n_sites then sites.(v).City.coord else towers.(v - n_sites).Tower.position
      in
      let endpoints =
        Array.init n (fun v ->
            if v < n_sites then
              let c = sites.(v) in
              {
                Los.position = c.City.coord;
                ground_m = Dem_cache.elevation_m cache c.City.coord;
                antenna_m = site_antenna_m;
              }
            else
              let tw = towers.(v - n_sites) in
              {
                Los.position = tw.Tower.position;
                ground_m = Dem_cache.elevation_m cache tw.Tower.position;
                antenna_m = Tower.usable_height_m tw ~fraction:config.height_fraction;
              })
      in
      let grid =
        Grid.of_list ~cell_deg:0.5
          (List.init n_towers (fun k -> (towers.(k).Tower.position, k)))
      in
      (* Every candidate pair once, in edge-id order: each tower pair
         within hop range, then each site with the towers within its
         attach radius. *)
      let iter_candidates visit =
        for k = 0 to n_towers - 1 do
          Grid.iter_nearby grid towers.(k).Tower.position
            ~radius_km:config.los_params.Los.max_range_km (fun _ k' ->
              if k' > k then visit (n_sites + k) (n_sites + k'))
        done;
        for i = 0 to n_sites - 1 do
          Grid.iter_nearby grid sites.(i).City.coord ~radius_km:site_attach_radius_km
            (fun _ k -> visit i (n_sites + k))
        done
      in
      (* Two passes and no per-edge allocation: count each node's
         degree, then fill.  A node's arcs fill its range from the end,
         so they run in decreasing edge id. *)
      let first = Array.make (n + 1) 0 in
      iter_candidates (fun u v ->
          first.(u + 1) <- first.(u + 1) + 1;
          first.(v + 1) <- first.(v + 1) + 1);
      for u = 1 to n do
        first.(u) <- first.(u) + first.(u - 1)
      done;
      let n_arcs = first.(n) in
      let n_edges = n_arcs / 2 in
      let edge_u = Array.make n_edges 0 and edge_v = Array.make n_edges 0 in
      let verdict = Bytes.make n_edges untested in
      let arc_dst = Array.make n_arcs 0 and arc_edge = Array.make n_arcs 0 in
      let arc_km = Array.make n_arcs 0.0 in
      let fill = Array.sub first 1 n in
      (* A site reaches its towers from 50 m on, not from Los's
         minimum hop length. *)
      let site_params = { config.los_params with Los.min_range_km = 0.05 } in
      let next_edge = ref 0 in
      iter_candidates (fun u v ->
          let e = !next_edge in
          next_edge := e + 1;
          let d = Geodesy.distance_km (position u) (position v) in
          edge_u.(e) <- u;
          edge_v.(e) <- v;
          (* Out of range is decided by the distance alone, the test
             Los applies before it samples any terrain. *)
          let p = if u < n_sites then site_params else config.los_params in
          if d > p.Los.max_range_km || d < p.Los.min_range_km then Bytes.set verdict e blocked;
          fill.(u) <- fill.(u) - 1;
          arc_dst.(fill.(u)) <- v;
          arc_edge.(fill.(u)) <- e;
          arc_km.(fill.(u)) <- d;
          fill.(v) <- fill.(v) - 1;
          arc_dst.(fill.(v)) <- u;
          arc_edge.(fill.(v)) <- e;
          arc_km.(fill.(v)) <- d);
      Telemetry.add "hops.towers" n_towers;
      {
        config;
        sites;
        towers;
        n_sites;
        feasible_hops = 0;
        candidates =
          {
            cache;
            endpoints;
            site_params;
            edge_u;
            edge_v;
            verdict;
            first;
            arc_dst;
            arc_edge;
            arc_km;
          };
      })

(* Test candidates [todo.(0 .. n-1)] (untested, each listed once) on
   the pool, one result slot per test, then write their verdicts in
   slot order, so the verdicts and the counts are the same at every
   width.  Returns how many were blocked. *)
let test_edges t todo n =
  let c = t.candidates in
  let ok = Array.make n false in
  Cisp_util.Pool.parallel_for ~n (fun i ->
      let e = todo.(i) in
      let u = c.edge_u.(e) in
      let params = if u < t.n_sites then c.site_params else t.config.los_params in
      ok.(i) <- Los.feasible_cached ~params ~cache:c.cache c.endpoints.(u) c.endpoints.(c.edge_v.(e)));
  Telemetry.add "hops.los_tests" n;
  let n_blocked = ref 0 and n_hops = ref 0 in
  for i = 0 to n - 1 do
    let e = todo.(i) in
    if ok.(i) then begin
      Bytes.set c.verdict e feasible;
      if c.edge_u.(e) >= t.n_sites then incr n_hops
    end
    else begin
      Bytes.set c.verdict e blocked;
      incr n_blocked
    end
  done;
  t.feasible_hops <- t.feasible_hops + !n_hops;
  Telemetry.add "hops.feasible_hops" !n_hops;
  !n_blocked

let force_graph t =
  Telemetry.with_span "hops.force" (fun () ->
      let c = t.candidates in
      let n_edges = Bytes.length c.verdict in
      let todo = Array.make n_edges 0 in
      let n = ref 0 in
      for e = 0 to n_edges - 1 do
        if Bytes.get c.verdict e = untested then begin
          todo.(!n) <- e;
          incr n
        end
      done;
      ignore (test_edges t todo !n);
      let km = Array.make n_edges 0.0 in
      Array.iteri (fun a e -> km.(e) <- c.arc_km.(a)) c.arc_edge;
      let graph = Graph.create (Array.length c.endpoints) in
      for e = 0 to n_edges - 1 do
        if Bytes.get c.verdict e = feasible then
          Graph.add_undirected graph c.edge_u.(e) c.edge_v.(e) km.(e)
      done;
      graph)

type link = {
  src : int;
  dst : int;
  distance_km : float;
  geodesic_km : float;
  node_path : int list;
  tower_count : int;
}

let hops_of_link l =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  pairs l.node_path

(* ---------- the lazy search (LazySP with subtree repair) ---------- *)

(* Node states during a search. *)
let unsettled = '\000'
let settled = '\001'
let affected = '\002'

(* One source's shortest-path tree over the candidates minus the
   blocked edges, reused from source to source.  [order] lists the
   settled nodes in settle order, so a node's parent precedes it. *)
type search = {
  dist : float array;
  prev : int array;      (* parent node; -1 at the source and unreached *)
  via : int array;       (* candidate edge from the parent *)
  state : Bytes.t;
  order : int array;
  mutable n_order : int;
  heap : Heap.t;
  walked : int array;    (* round stamp of the path walk *)
  mutable round : int;
  todo : int array;      (* untested path edges of a round *)
  repaired : int array;  (* affected nodes of a repair *)
  mutable settles : int;
}

(* Settle nodes until the heap drains, relaxing every arc whose edge
   is not blocked: an untested edge counts as feasible.  Relaxation is
   [Dijkstra.run]'s (strict [<], arcs in adjacency order), so once no
   edge is untested the tree is the one [Dijkstra.run] finds on
   [force_graph]'s graph, ties included. *)
let settle_all c s =
  while Heap.length s.heap > 0 do
    let d = Heap.min_key s.heap in
    let u = Heap.pop_min s.heap in
    if Bytes.get s.state u = unsettled then begin
      Bytes.set s.state u settled;
      s.order.(s.n_order) <- u;
      s.n_order <- s.n_order + 1;
      s.settles <- s.settles + 1;
      for a = c.first.(u) to c.first.(u + 1) - 1 do
        let v = c.arc_dst.(a) in
        let nd = d +. c.arc_km.(a) in
        if nd < s.dist.(v) && Bytes.get c.verdict c.arc_edge.(a) <> blocked then begin
          s.dist.(v) <- nd;
          s.prev.(v) <- u;
          s.via.(v) <- c.arc_edge.(a);
          Heap.push s.heap nd v
        end
      done
    end
  done

(* The untested edges on the tree paths from [src] to the other
   sites, each listed once into [s.todo]; returns their count.  A walk
   stops at the first node an earlier walk of this round passed. *)
let collect t s ~src =
  let c = t.candidates in
  s.round <- s.round + 1;
  let n = ref 0 in
  for dst = 0 to t.n_sites - 1 do
    if dst <> src && s.dist.(dst) < infinity then begin
      let v = ref dst in
      while !v <> src && s.walked.(!v) <> s.round do
        s.walked.(!v) <- s.round;
        let e = s.via.(!v) in
        if Bytes.get c.verdict e = untested then begin
          s.todo.(!n) <- e;
          incr n
        end;
        v := s.prev.(!v)
      done
    end
  done;
  !n

(* Subtree repair after some tree edges were found blocked: the nodes
   whose tree path crosses one are found in one pass in settle order
   (a parent precedes its children), leave the tree, take their best
   distance through a settled unaffected neighbour, and are settled
   again.  Every other node keeps its distance, which no blocked edge
   can lower. *)
let repair c s ~src =
  let n_aff = ref 0 and kept = ref 0 in
  for i = 0 to s.n_order - 1 do
    let v = s.order.(i) in
    if
      v <> src
      && (Bytes.get s.state s.prev.(v) = affected || Bytes.get c.verdict s.via.(v) = blocked)
    then begin
      Bytes.set s.state v affected;
      s.repaired.(!n_aff) <- v;
      incr n_aff
    end
    else begin
      s.order.(!kept) <- v;
      incr kept
    end
  done;
  s.n_order <- !kept;
  let n_aff = !n_aff in
  for i = 0 to n_aff - 1 do
    let v = s.repaired.(i) in
    s.dist.(v) <- infinity;
    s.prev.(v) <- -1;
    s.via.(v) <- -1
  done;
  for i = 0 to n_aff - 1 do
    let v = s.repaired.(i) in
    for a = c.first.(v) to c.first.(v + 1) - 1 do
      let u = c.arc_dst.(a) in
      if Bytes.get s.state u = settled then begin
        let nd = s.dist.(u) +. c.arc_km.(a) in
        if nd < s.dist.(v) && Bytes.get c.verdict c.arc_edge.(a) <> blocked then begin
          s.dist.(v) <- nd;
          s.prev.(v) <- u;
          s.via.(v) <- c.arc_edge.(a)
        end
      end
    done;
    if s.dist.(v) < infinity then Heap.push s.heap s.dist.(v) v
  done;
  for i = 0 to n_aff - 1 do
    Bytes.set s.state s.repaired.(i) unsettled
  done;
  settle_all c s

(* LazySP from one source: search, test the untested edges on the
   paths to the other sites, repair the subtrees under the blocked
   ones, and repeat until every path edge is feasible. *)
let search t s ~src =
  let c = t.candidates in
  Array.fill s.dist 0 (Array.length s.dist) infinity;
  Array.fill s.prev 0 (Array.length s.prev) (-1);
  Array.fill s.via 0 (Array.length s.via) (-1);
  Bytes.fill s.state 0 (Bytes.length s.state) unsettled;
  s.n_order <- 0;
  s.dist.(src) <- 0.0;
  Heap.push s.heap 0.0 src;
  settle_all c s;
  let rec rounds () =
    let n = collect t s ~src in
    if n > 0 && test_edges t s.todo n > 0 then begin
      repair c s ~src;
      rounds ()
    end
  in
  rounds ()

let tree_path s ~dst =
  let rec build acc v = if v = -1 then acc else build (v :: acc) s.prev.(v) in
  build [] dst

let link_of_path t ~src ~dst (distance_km, node_path) =
  let tower_count = List.length (List.filter (fun v -> is_tower_node t v) node_path) in
  {
    src;
    dst;
    distance_km;
    geodesic_km = Geodesy.distance_km t.sites.(src).coord t.sites.(dst).coord;
    node_path;
    tower_count;
  }

let all_links t =
  Telemetry.with_span "hops.all_links" (fun () ->
      let n = Array.length t.candidates.endpoints in
      let s =
        {
          dist = Array.make n infinity;
          prev = Array.make n (-1);
          via = Array.make n (-1);
          state = Bytes.make n unsettled;
          order = Array.make n 0;
          n_order = 0;
          heap = Heap.create ();
          walked = Array.make n 0;
          round = 0;
          todo = Array.make n 0;
          repaired = Array.make n 0;
          settles = 0;
        }
      in
      let out = Array.make_matrix t.n_sites t.n_sites None in
      for src = 0 to t.n_sites - 1 do
        search t s ~src;
        for dst = 0 to t.n_sites - 1 do
          let d = s.dist.(dst) in
          if dst <> src && d < infinity then
            out.(src).(dst) <- Some (link_of_path t ~src ~dst (d, tree_path s ~dst))
        done
      done;
      Telemetry.add "hops.search.settles" s.settles;
      out)
