(** End-to-end scenario driver.

    Assembles the full cISP pipeline of the paper: synthetic terrain,
    tower registry, culling, hop feasibility (step 1), fiber network,
    traffic model, topology design (step 2), and capacity planning
    (step 3).  Heavy artifacts (the hop graph takes ~20 s at the
    112-center US scale) are memoized per configuration so benchmarks
    can share them.  The terrain and the tower registry come from
    fixed seeds (42 and 7), and a run is costed at {!Cost.default}. *)

type region =
  | Us
  | Europe
  | Custom of string * Cisp_data.City.t list
      (** arbitrary sites over the US terrain model; the string names
          the scenario for caching (e.g. "interdc") *)

type config = {
  region : region;
  n_sites : int option;        (** take only the top-k population centers *)
  max_range_km : float;        (** MW hop range (Fig 10 sweeps 60-100) *)
  height_fraction : float;     (** usable tower height (Fig 10) *)
}

val default_config : config
(** US, all centers, 100 km range, full tower height. *)

val europe_config : config

type artifacts = {
  config : config;
  dem : Cisp_terrain.Dem.t;
  cache : Cisp_terrain.Dem_cache.t;
  sites : Cisp_data.City.t array;
  towers : Cisp_towers.Tower.t list;    (** culled registry *)
  hops : Cisp_towers.Hops.t;
  fiber : Cisp_fiber.Conduit.t;
}

val artifacts : ?config:config -> unit -> artifacts
(** Build (or fetch memoized) artifacts for a configuration.  Raises
    [Invalid_argument] if [n_sites] is [Some k] with [k < 1]. *)

val inputs : artifacts -> traffic:Cisp_traffic.Matrix.t -> Inputs.t

val population_inputs : artifacts -> Inputs.t
(** Inputs with the population-product traffic model. *)

val design : Inputs.t -> budget:int -> Topology.t
(** The paper's pipeline at scale: greedy with 2x-inflated budget for
    candidates, then greedy at budget + swap local search.  (The exact
    ILP, {!Ilp.design}, and the LP-rounding baseline,
    {!Lp_rounding.design}, take the same greedy candidates.) *)

type report = {
  topology : Topology.t;
  stretch : float;
  plan : Capacity.plan;
  cost_per_gb : float;
}

val full_run : ?config:config -> budget:int -> aggregate_gbps:float -> unit -> report
(** The whole pipeline with the population traffic model: design at
    [budget] towers, provision [aggregate_gbps], cost it. *)
