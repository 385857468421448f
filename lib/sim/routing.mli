(** Routing schemes over a designed topology (paper §5, §6.1).

    Besides default shortest-path routing, the paper implements
    "throughput optimal routing, and routing that minimizes the
    maximum link utilization, a scheme commonly employed by ISPs".
    Both alternatives spread load at the cost of ~10% extra latency.

    Every scheme routes over the topology's site network: one edge per
    connected pair, the medium {!Cisp_design.Topology.rides_mw} picks.
    Shortest paths come from {!Cisp_design.Topology.routes}; the
    alternatives are source routes (node arrays) per commodity,
    computed sequentially in descending demand with congestion-aware
    edge costs — the standard greedy realization of these schemes for
    unsplittable flows.  A failed MW link is one the topology no
    longer holds: routing over the surviving topology is the
    whole-recompute reroute.

    On top of the single-path schemes sits a multipath layer for the
    availability story (§6.1): per-commodity sets of medium-aware
    (MW vs fiber) edge-disjoint paths, used either as a precomputed
    fast-local-failover table (primary + backups, the first surviving
    route is activated without any global recompute) or for
    load-splitting across all surviving routes. *)

type scheme =
  | Shortest_path
  | Min_max_utilization    (** sharp penalty on hot links *)
  | Throughput_optimal     (** congestion-proportional latency inflation *)
  | Bounded_stretch of float
      (** spread load like [Min_max_utilization] but never accept a
          route longer than the bound x the commodity's shortest
          latency — the direction the paper points to (Gvozdiev et
          al. [33]) for cutting over-provisioning at a modest,
          bounded latency cost *)
  | K_disjoint_split of int
      (** split each commodity over up to k medium-aware edge-disjoint
          paths, weighted inversely to path latency; under failures the
          surviving paths keep carrying (renormalized) load *)
  | K_disjoint_failover of int
      (** single path at a time: the shortest path as primary plus up
          to k-1 precomputed edge-disjoint backups, activated in
          priority order when the routes ahead of them fail — local
          failover with no global recompute *)

type network_model = {
  inputs : Cisp_design.Inputs.t;
  topology : Cisp_design.Topology.t;
  mw_gbps : (int * int) -> float;   (** capacity of a built link *)
  fiber_gbps : float;               (** capacity of each fiber edge *)
}

val paths :
  network_model -> scheme -> demands_gbps:Cisp_traffic.Matrix.t ->
  ((int * int), int array) Hashtbl.t
(** Source route for every commodity with positive demand (key (s,t)
    with s <> t, both directions present).  [K_disjoint_split] and
    [K_disjoint_failover] yield their primary (= shortest) route here;
    use {!multipath_table} for the full path sets. *)

val route_latency_km : network_model -> int array -> float
(** Latency-equivalent length of a node route, each hop on the
    medium {!Cisp_design.Topology.rides_mw} picks for its pair. *)

val mean_route_latency_ms :
  network_model -> ((int * int), int array) Hashtbl.t ->
  demands_gbps:Cisp_traffic.Matrix.t -> float
(** Demand-weighted mean propagation latency of the chosen routes —
    used to show the alternatives' latency penalty without running
    packets. *)

(** {2 Multipath and fast local failover} *)

type medium = Cisp_design.Topology.medium = Mw | Fiber

type mp_path = {
  nodes : int array;           (** site sequence from s to t *)
  media : medium array;        (** per hop; length = hops *)
  latency_km : float;          (** latency-equivalent length over [media] *)
}

type multipath = {
  routes : mp_path array;      (** priority order; index 0 = primary *)
  split : float array;         (** load fractions, same length, sum 1 *)
}

val multipath_table :
  network_model -> scheme -> demands_gbps:Cisp_traffic.Matrix.t ->
  ((int * int), multipath) Hashtbl.t
(** Per-commodity route sets, precomputed under fair weather, for
    [K_disjoint_split k] / [K_disjoint_failover k]: up to [k]
    medium-aware edge-disjoint paths (successive shortest-path removal
    over the combined MW+fiber multigraph, so a backup may take the
    fiber pair under a consumed MW edge).  The split weights are
    1/latency-normalized for [K_disjoint_split], all mass on the
    primary for [K_disjoint_failover].  Raises [Invalid_argument] if
    [k <= 0] or for any other scheme. *)

val select_routes : multipath -> up:Cisp_design.Topology.t -> (mp_path * float) array
(** Fast local failover: the routes whose every MW hop the surviving
    topology [up] still holds (fiber hops never fail), with split
    weights renormalized over the survivors.  When all surviving
    routes had zero weight (pure-failover backups), the first survivor
    gets the full load.  [[||]] when no precomputed route survives —
    the commodity is unavailable until a global recompute. *)
