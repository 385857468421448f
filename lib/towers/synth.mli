(** Synthetic tower registry (substitute for FCC ASR + commercial
    tower databases, paper §4).

    Real tower infrastructure clusters around population and along
    transport corridors; ruggedness depresses density.  The generator
    reproduces those statistics deterministically:

    - per-city clusters whose size grows with population (every site
      "hosts enough towers to use as the starting point" — §3.1);
    - corridor towers scattered along the geodesics between nearby
      city pairs (real long-haul towers follow highways/railroads);
    - a uniform rural background over the bounding box.

    Heights follow the mix seen in the FCC data: most structures are
    50-150 m, with a tall tail up to ~300 m.

    Constants of the generator: a city cluster holds
    {!Cisp_util.Units.towers_per_100k} towers per 100,000 inhabitants
    (at least 6, at most 80) within 30 km of the center; corridors
    join each city to its 8 nearest neighbours when they are 60 to
    1,200 km apart, with towers scattered up to 3 km off the geodesic;
    heights are clamped to 50-350 m. *)

type config = {
  seed : int;
  corridor_spacing_km : float;
      (** mean spacing of corridor towers.  No caller sets it; it
          keeps the record wider than the two fields callers set, so
          that e2ebench's [{ default_config with seed; background_count }]
          is not a useless-[with] error (warning 23). *)
  background_count : int;        (** uniform rural towers *)
}

val default_config : config
(** Seed 7, corridor towers every 20 km, 7,000 rural towers. *)

val generate :
  ?config:config -> dem:Cisp_terrain.Dem.t -> sites:Cisp_data.City.t list ->
  unit -> Tower.t list
(** Deterministic registry for the given sites. *)
