module Geodesy = Cisp_geo.Geodesy
module Grid = Cisp_geo.Grid
module Dem_cache = Cisp_terrain.Dem_cache
module Los = Cisp_rf.Los
module Graph = Cisp_graph.Graph
module Dijkstra = Cisp_graph.Dijkstra
module City = Cisp_data.City

type config = { los_params : Los.params; height_fraction : float }

let default_config = { los_params = Los.default_params; height_fraction = 1.0 }

(* Antenna height at a site, and how far a site reaches for its first
   tower. *)
let site_antenna_m = 80.0
let site_attach_radius_km = 40.0

type t = {
  config : config;
  sites : City.t array;
  towers : Tower.t array;
  graph : Graph.t;
  n_sites : int;
  feasible_hops : int;
}

let tower_node t k = t.n_sites + k
let is_tower_node t v = v >= t.n_sites

let node_position t node =
  if node < t.n_sites then t.sites.(node).City.coord
  else t.towers.(node - t.n_sites).Tower.position

let build ?(config = default_config) ~cache ~sites ~towers () =
  Cisp_util.Telemetry.with_span "hops.build" (fun () ->
  let sites = Array.of_list sites in
  let towers = Array.of_list towers in
  let n_sites = Array.length sites in
  let n = n_sites + Array.length towers in
  let graph = Graph.create n in
  let tower_endpoint (tw : Tower.t) =
    {
      Los.position = tw.position;
      ground_m = Dem_cache.elevation_m cache tw.position;
      antenna_m = Tower.usable_height_m tw ~fraction:config.height_fraction;
    }
  in
  let site_endpoint (c : City.t) =
    {
      Los.position = c.coord;
      ground_m = Dem_cache.elevation_m cache c.coord;
      antenna_m = site_antenna_m;
    }
  in
  (* Index towers spatially for range queries. *)
  let grid =
    Grid.of_list ~cell_deg:0.5
      (List.init (Array.length towers) (fun k -> (towers.(k).Tower.position, k)))
  in
  (* Endpoints are pair-invariant: build them once per tower, O(towers),
     instead of once per tested pair, O(pairs). *)
  let tower_eps = Array.map tower_endpoint towers in
  (* Tower-tower hops: each unordered pair within range tested once.
     The LOS + Fresnel walks are pure (the DEM view holds no lock),
     so feasibility is decided in parallel per source tower; edges are
     then inserted sequentially in the same (k, nearby-iteration)
     order a sequential sweep would produce, keeping adjacency-list
     order — and hence any downstream shortest-path tie-break —
     bit-identical. *)
  let n_towers = Array.length towers in
  let tower_edges = Array.make n_towers [] in
  Cisp_util.Telemetry.with_span "hops.tower_los" (fun () ->
      Cisp_util.Pool.parallel_for ~n:n_towers (fun k ->
          let tw = towers.(k) in
          let ep_k = tower_eps.(k) in
          let acc = ref [] in
          Grid.iter_nearby grid tw.position ~radius_km:config.los_params.Los.max_range_km
            (fun _ k' ->
              if k' > k then begin
                if Cisp_util.Telemetry.enabled () then
                  Cisp_util.Telemetry.incr "hops.los_tests";
                if Los.feasible_cached ~params:config.los_params ~cache ep_k tower_eps.(k')
                then begin
                  let d = Geodesy.distance_km tw.position towers.(k').position in
                  acc := (k', d) :: !acc
                end
              end);
          tower_edges.(k) <- List.rev !acc));
  let feasible_hops = ref 0 in
  Array.iteri
    (fun k edges ->
      List.iter
        (fun (k', d) ->
          Graph.add_undirected graph (n_sites + k) (n_sites + k') d;
          incr feasible_hops)
        edges)
    tower_edges;
  (* Site-tower attachment: a site reaches nearby towers directly.  The
     paper observes each site hosts plenty of towers; the attachment
     radius stands in for intra-city connectivity whose latency is
     still counted via the edge length.  Same parallel-test /
     sequential-insert split as above. *)
  let site_edges = Array.make n_sites [] in
  let relaxed = { config.los_params with Los.min_range_km = 0.05 } in
  Cisp_util.Telemetry.with_span "hops.site_attach" (fun () ->
      Cisp_util.Pool.parallel_for ~n:n_sites (fun i ->
          let c = sites.(i) in
          let ep_site = site_endpoint c in
          let acc = ref [] in
          Grid.iter_nearby grid c.coord ~radius_km:site_attach_radius_km
            (fun _ k ->
              if Cisp_util.Telemetry.enabled () then
                Cisp_util.Telemetry.incr "hops.los_tests";
              if Los.feasible_cached ~params:relaxed ~cache ep_site tower_eps.(k) then begin
                let d = Geodesy.distance_km c.coord towers.(k).position in
                acc := (k, d) :: !acc
              end);
          site_edges.(i) <- List.rev !acc));
  Array.iteri
    (fun i edges ->
      List.iter (fun (k, d) -> Graph.add_undirected graph i (n_sites + k) d) edges)
    site_edges;
  if Cisp_util.Telemetry.enabled () then begin
    Cisp_util.Telemetry.add "hops.towers" n_towers;
    Cisp_util.Telemetry.add "hops.feasible_hops" !feasible_hops
  end;
  { config; sites; towers; graph; n_sites; feasible_hops = !feasible_hops })

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
  Cisp_util.Telemetry.with_span "hops.all_links" (fun () ->
      let n = t.n_sites in
      (* One Dijkstra per site (APSP over the hop graph, parallel on
         the pool); path extraction is cheap and runs sequentially. *)
      let rs = Dijkstra.all_pairs_results t.graph ~sources:(Array.init n Fun.id) in
      let out = Array.make_matrix n n None in
      Array.iteri
        (fun src (r : Dijkstra.result) ->
          for dst = 0 to n - 1 do
            let d = r.Dijkstra.dist.(dst) in
            if dst <> src && d < infinity then
              out.(src).(dst) <- Some (link_of_path t ~src ~dst (d, Dijkstra.path r ~dst))
          done)
        rs;
      out)
