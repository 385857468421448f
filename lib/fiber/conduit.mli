(** Synthetic long-haul fiber conduit network (InterTubes substitute).

    The paper computes fiber distances as shortest paths over the
    InterTubes conduit dataset and finds that even latency-optimal use
    of all conduits leaves the network 1.93x away from c-latency
    (1.5x from the speed of light in glass, the rest from route
    circuitousness).

    This module builds a conduit graph over the sites: a Gabriel graph
    (a standard proximity-graph model of road/rail-following
    infrastructure) plus enough nearest-neighbour edges to keep the
    graph connected, with each conduit's length inflated over the
    geodesic by a deterministic per-edge circuitousness factor.  The
    resulting end-to-end shortest routes reproduce InterTubes'
    measured inflation statistics. *)

type mode =
  | Synthetic
      (** conduit graph whose per-edge route inflation is drawn
          uniformly from \[1.08, 1.35\] (RNG seed 13), tuned so that
          mean end-to-end latency inflation (including the 1.5x glass
          factor) is ~1.9x, matching InterTubes *)
  | Assumed of float
      (** no conduit data (paper §6.2, Europe): every pair's fiber
          route is [factor] x geodesic *)

type t

val build : ?mode:mode -> sites:Cisp_data.City.t list -> unit -> t
(** [mode] defaults to [Synthetic]. *)

val route_km : t -> int -> int -> float
(** Shortest conduit route between two site indices, km of fiber.
    [infinity] if unreachable (cannot happen with [Synthetic]). *)

val latency_km : t -> int -> int -> float
(** The paper's o_ij: route length multiplied by the 1.5 latency
    factor, expressed in km-at-c so it is directly comparable with MW
    distances. *)

val latency_matrix : t -> float array array
(** All-pairs [latency_km]. *)

val mean_latency_inflation : t -> float
(** Mean over site pairs of [latency_km / geodesic] — should be ~1.9
    for the synthetic US network (paper: 1.93). *)

val edges : t -> (int * int * float) list
(** Conduit segments as (site, site, route km) — for visualization. *)
