module Geodesy = Cisp_geo.Geodesy
module Grid = Cisp_geo.Grid
module Dem_cache = Cisp_terrain.Dem_cache
module Los = Cisp_rf.Los
module Graph = Cisp_graph.Graph
module Dijkstra = Cisp_graph.Dijkstra
module City = Cisp_data.City
module Telemetry = Cisp_util.Telemetry

type config = { los_params : Los.params; height_fraction : float }

let default_config = { los_params = Los.default_params; height_fraction = 1.0 }

(* Antenna height at a site, and how far a site reaches for its first
   tower. *)
let site_antenna_m = 80.0
let site_attach_radius_km = 40.0

(* Whether a candidate edge's verdict is known: tested, or blocked by
   its length.  A known edge is feasible unless the graph has removed
   it. *)
let untested = '\000'
let known = '\001'

(* The candidate hop graph.  Edge ids follow the listing order (tower
   [k] with each nearby tower [k' > k], then each site with its nearby
   towers); an edge's first endpoint is the one a LOS test walks from,
   and its weight is its great-circle length.  A blocked edge is a
   removed one, so a search treats an untested edge as feasible and
   skips the blocked ones. *)
type candidates = {
  cache : Dem_cache.t;
  endpoints : Los.endpoint array;  (* per node *)
  site_params : Los.params;
  graph : Graph.t;
  verdict : Bytes.t;  (* per edge: untested or known *)
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
      (* Two passes: count the candidates, then list them. *)
      let n_edges = ref 0 in
      iter_candidates (fun _ _ -> incr n_edges);
      let n_edges = !n_edges in
      let edge_u = Array.make n_edges 0 and edge_v = Array.make n_edges 0 in
      let km = Array.make n_edges 0.0 in
      let next_edge = ref 0 in
      iter_candidates (fun u v ->
          let e = !next_edge in
          next_edge := e + 1;
          edge_u.(e) <- u;
          edge_v.(e) <- v;
          km.(e) <- Geodesy.distance_km (position u) (position v));
      let graph = Graph.of_edges ~n edge_u edge_v km in
      let verdict = Bytes.make n_edges untested in
      (* A site reaches its towers from 50 m on, not from Los's
         minimum hop length. *)
      let site_params = { config.los_params with Los.min_range_km = 0.05 } in
      (* Out of range is decided by the distance alone, the test Los
         applies before it samples any terrain. *)
      for e = 0 to n_edges - 1 do
        let p = if edge_u.(e) < n_sites then site_params else config.los_params in
        if km.(e) > p.Los.max_range_km || km.(e) < p.Los.min_range_km then begin
          Bytes.set verdict e known;
          Graph.remove graph e
        end
      done;
      Telemetry.add "hops.towers" n_towers;
      {
        config;
        sites;
        towers;
        n_sites;
        feasible_hops = 0;
        candidates = { cache; endpoints; site_params; graph; verdict };
      })

(* Test candidates [todo.(0 .. n-1)] (untested, each listed once) on
   the pool, one result slot per test, then write their verdicts in
   slot order, so the verdicts and the counts are the same at every
   width.  Returns how many were blocked. *)
let test_edges t todo n =
  let c = t.candidates in
  let g = c.graph in
  let ok = Array.make n false in
  Cisp_util.Pool.parallel_for ~n (fun i ->
      let e = todo.(i) in
      let u = g.Graph.edge_u.(e) in
      let params = if u < t.n_sites then c.site_params else t.config.los_params in
      ok.(i) <-
        Los.feasible_cached ~params ~cache:c.cache c.endpoints.(u)
          c.endpoints.(g.Graph.edge_v.(e)));
  Telemetry.add "hops.los_tests" n;
  let n_blocked = ref 0 and n_hops = ref 0 in
  for i = 0 to n - 1 do
    let e = todo.(i) in
    Bytes.set c.verdict e known;
    if ok.(i) then begin
      if g.Graph.edge_u.(e) >= t.n_sites then incr n_hops
    end
    else begin
      Graph.remove g e;
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
      Graph.copy c.graph)

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

(* One source's shortest-path tree over the candidates minus the
   blocked edges, reused from source to source, and the path walks'
   scratch. *)
type search = {
  tree : Dijkstra.t;
  walked : int array;    (* round stamp of the path walk *)
  mutable round : int;
  todo : int array;      (* untested path edges of a round *)
}

(* The untested edges on the tree paths from [src] to the other
   sites, each listed once into [s.todo]; returns their count.  A walk
   stops at the first node an earlier walk of this round passed. *)
let collect t s ~src =
  let c = t.candidates in
  let tree = s.tree in
  s.round <- s.round + 1;
  let n = ref 0 in
  for dst = 0 to t.n_sites - 1 do
    if dst <> src && tree.Dijkstra.dist.(dst) < infinity then begin
      let v = ref dst in
      while !v <> src && s.walked.(!v) <> s.round do
        s.walked.(!v) <- s.round;
        let e = tree.Dijkstra.via.(!v) in
        if Bytes.get c.verdict e = untested then begin
          s.todo.(!n) <- e;
          incr n
        end;
        v := tree.Dijkstra.prev.(!v)
      done
    end
  done;
  !n

(* LazySP from one source: search with the untested edges counted as
   feasible, test the untested edges on the paths to the other sites,
   repair the subtrees under the blocked ones, and repeat until every
   path edge is feasible.  Ties aside, the paths are then the ones
   [Dijkstra.run] finds on [force_graph]'s graph. *)
let search t s ~src =
  Dijkstra.search s.tree ~src;
  let rec rounds () =
    let n = collect t s ~src in
    if n > 0 && test_edges t s.todo n > 0 then begin
      Dijkstra.repair s.tree;
      rounds ()
    end
  in
  rounds ()

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
      let g = t.candidates.graph in
      let n = Graph.node_count g in
      let s =
        { tree = Dijkstra.create g; walked = Array.make n 0; round = 0; todo = Array.make n 0 }
      in
      let out = Array.make_matrix t.n_sites t.n_sites None in
      for src = 0 to t.n_sites - 1 do
        search t s ~src;
        for dst = 0 to t.n_sites - 1 do
          let d = s.tree.Dijkstra.dist.(dst) in
          if dst <> src && d < infinity then
            out.(src).(dst) <- Some (link_of_path t ~src ~dst (d, Dijkstra.path s.tree ~dst))
        done
      done;
      Telemetry.add "hops.search.settles" s.tree.Dijkstra.settles;
      out)
