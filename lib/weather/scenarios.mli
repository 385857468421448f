(** Deterministic failure-scenario engine (paper §6.1 extended).

    Replays a family of failure processes — uniform rain, a year-style
    storm replay, a hurricane window marching along a track, and
    synthetic correlated tower outages — against a designed topology,
    and evaluates each routing scheme's stretch/availability trade-off
    per interval: the frontier that motivates fast local failover and
    multipath load-splitting over whole-recompute reroute.

    Each interval's failed links are the built links its surviving
    topology omits ({!surviving}).
    Semantics per scheme (see {!Cisp_sim.Routing}):
    - single-path schemes ([Shortest_path], ...) model the global
      recompute baseline: routes are recomputed from scratch on the
      surviving topology each interval, so availability is bounded
      only by fiber connectivity;
    - [K_disjoint_failover k] activates the first surviving
      precomputed backup, with no recompute — a commodity whose whole
      precomputed set is down is counted unavailable;
    - [K_disjoint_split k] keeps load on all surviving precomputed
      paths with renormalized split weights.

    A k's failover and split schemes share one precomputed route set
    ({!Cisp_sim.Routing.multipath_table}).

    Every run is a pure function of (spec, seed): intervals are
    independent trials parallelized over the domain pool, bit-identical
    at any [CISP_JOBS] width. *)

type spec =
  | Uniform_rain of { mm_h : float }
      (** every hop sees the same rain rate; a single interval *)
  | Rain_replay of { climate : Rainfield.climate; intervals : int }
      (** the {!Year}-style storm-field replay *)
  | Hurricane of {
      center : Cisp_geo.Coord.t;
      track_bearing_deg : float;
      step_km : float;      (** eye displacement per interval *)
      intervals : int;
    }
  | Correlated_towers of { blobs : int; radius_km : float; intervals : int }
      (** per interval, [blobs] regional outages centered on randomly
          chosen towers take down every link passing within
          [radius_km] *)

val spec_name : spec -> string
(** Stable slug ("uniform-rain", "rain-replay", "hurricane",
    "correlated-towers") used in CSV output and test labels. *)

type scheme_summary = {
  scheme : string;
  availability : float;
      (** demand-weighted fraction of commodity-intervals with a
          surviving route *)
  mean_stretch : float;
      (** demand-weighted mean stretch (route latency / geodesic) over
          available commodity-intervals; [nan] when nothing was
          available *)
  p99_stretch : float;
  worst_stretch : float;
}

type result = {
  name : string;                 (** {!spec_name} of the spec *)
  intervals : int;
  mean_failed_links : float;     (** built MW links down per interval *)
  schemes : scheme_summary list; (** one per requested scheme, in order *)
}

val default_schemes : k:int -> (string * Cisp_sim.Routing.scheme) list
(** The frontier's standard contenders: global-recompute shortest
    path, [K_disjoint_failover k], and [K_disjoint_split k]. *)

val standard_suite :
  ?intervals:int ->
  climate:Rainfield.climate ->
  hurricane_center:Cisp_geo.Coord.t ->
  unit -> spec list
(** Uniform rain at a convective-core 110 mm/h (heavy enough to take
    out the longest hops but not short ones), storm replay, hurricane
    window, and two correlated tower outages ([intervals] defaults to
    8 per multi-interval spec). *)

val surviving :
  seed:int ->
  hops:Cisp_towers.Hops.t ->
  Cisp_design.Topology.t ->
  spec ->
  int ->
  Cisp_design.Topology.t * int
(** [surviving ~seed ~hops topo spec iv] is interval [iv]'s outage
    process, a pure function of ([spec], [seed], [iv]): [topo] without
    the built links the process takes down (the rest keep their
    construction order), and how many it took down.  [hops] supplies
    node positions for the built links' tower paths; a link without
    hop data is judged at the midpoint of its two sites (under rain,
    as one 60 km hop there). *)

val run :
  ?seed:int ->
  schemes:(string * Cisp_sim.Routing.scheme) list ->
  hops:Cisp_towers.Hops.t ->
  model:Cisp_sim.Routing.network_model ->
  demands_gbps:Cisp_traffic.Matrix.t ->
  spec ->
  result
(** Replay one spec, taking each interval's outages from
    {!surviving}.  Raises [Invalid_argument] on a non-positive
    interval count, an empty scheme list, or demands with no
    commodity (no site pair with positive demand and distance). *)

val frontier_csv : result list -> string
(** The stretch/availability frontier as CSV
    ([scenario,scheme,availability,mean_stretch,p99_stretch,
    worst_stretch,mean_failed_links]; one row per (scenario, scheme)). *)
