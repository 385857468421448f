module Dem = Cisp_terrain.Dem
module Dem_cache = Cisp_terrain.Dem_cache
module Hops = Cisp_towers.Hops
module Los = Cisp_rf.Los

type region = Us | Europe | Custom of string * Cisp_data.City.t list

type config = {
  region : region;
  n_sites : int option;
  max_range_km : float;
  height_fraction : float;
}

let default_config = { region = Us; n_sites = None; max_range_km = 100.0; height_fraction = 1.0 }

(* The terrain's and the tower registry's seeds. *)
let dem_seed = 42
let tower_seed = 7

let europe_config = { default_config with region = Europe }

type artifacts = {
  config : config;
  dem : Dem.t;
  cache : Dem_cache.t;
  sites : Cisp_data.City.t array;
  towers : Cisp_towers.Tower.t list;
  hops : Hops.t;
  fiber : Cisp_fiber.Conduit.t;
}

let cache_table : (config, artifacts) Hashtbl.t = Hashtbl.create 4

let build_artifacts config =
  let region_dem =
    match config.region with
    | Us | Custom _ -> Dem.Us_continental
    | Europe -> Dem.Europe
  in
  let dem = Dem.create ~seed:dem_seed region_dem in
  let cache = Dem_cache.create dem in
  let centers =
    match config.region with
    | Us -> Cisp_data.Sites.us_population_centers ()
    | Europe -> Cisp_data.Sites.eu_population_centers ()
    | Custom (_, cities) -> cities
  in
  let centers =
    match config.n_sites with
    | None -> centers
    | Some k ->
      let sorted = List.sort Cisp_data.City.compare_population_desc centers in
      List.filteri (fun i _ -> i < k) sorted
  in
  let synth_config = { Cisp_towers.Synth.default_config with seed = tower_seed } in
  let towers = Cisp_towers.Synth.generate ~config:synth_config ~dem ~sites:centers () in
  let culled = Cisp_towers.Culling.apply towers in
  let hop_config =
    {
      Hops.los_params = { Los.default_params with max_range_km = config.max_range_km };
      height_fraction = config.height_fraction;
    }
  in
  let hops = Hops.build ~config:hop_config ~cache ~sites:centers ~towers:culled () in
  let fiber =
    match config.region with
    | Us | Custom _ -> Cisp_fiber.Conduit.build ~sites:centers ()
    | Europe ->
      (* Paper §6.2: no EU conduit data; assume the US-like 1.9x
         latency inflation over geodesics. *)
      Cisp_fiber.Conduit.build ~mode:(Cisp_fiber.Conduit.Assumed 1.93) ~sites:centers ()
  in
  { config; dem; cache; sites = Array.of_list centers; towers = culled; hops; fiber }

let artifacts ?(config = default_config) () =
  (match config.n_sites with
  | Some k when k < 1 -> invalid_arg (Printf.sprintf "Scenario.artifacts: n_sites = %d < 1" k)
  | Some _ | None -> ());
  match Hashtbl.find_opt cache_table config with
  | Some a -> a
  | None ->
    let a = build_artifacts config in
    Hashtbl.replace cache_table config a;
    a

let inputs a ~traffic = Inputs.of_hops ~hops:a.hops ~fiber:a.fiber ~traffic

let population_inputs a =
  inputs a ~traffic:(Cisp_traffic.Matrix.population_product a.sites)

let design (inputs : Inputs.t) ~budget =
  (* One greedy run at the paper's 2x-inflated budget yields both the
     candidate set and (as its affordable prefix) the seed design. *)
  let order = Greedy.candidate_set inputs ~budget in
  let seed =
    List.fold_left
      (fun topo (i, j) ->
        if topo.Topology.cost + Topology.link_cost inputs i j <= budget then
          Topology.add topo (i, j)
        else topo)
      (Topology.empty inputs) order
  in
  Local_search.improve inputs ~budget ~candidates:order seed

type report = {
  topology : Topology.t;
  stretch : float;
  plan : Capacity.plan;
  cost_per_gb : float;
}

let full_run ?(config = default_config) ~budget ~aggregate_gbps () =
  let a = artifacts ~config () in
  let inp = population_inputs a in
  let topo = design inp ~budget in
  let stretch = Topology.stretch_of topo in
  let spare = Capacity.spare_from_registry a.hops in
  let plan = Capacity.plan ~spare_series_at_hop:spare inp topo ~aggregate_gbps in
  let cpg = Capacity.cost_per_gb Cost.default plan ~aggregate_gbps in
  { topology = topo; stretch; plan; cost_per_gb = cpg }
