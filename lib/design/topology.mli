(** A designed topology: the set of built MW links, its evaluation,
    and the site network every later stage routes over.

    Evaluation uses the hybrid routing model of the paper: between any
    pair, traffic takes the shortest path over built MW links and the
    (always available) fiber mesh.  Distances here are
    latency-equivalent km (time = km / c).

    The per-pair rule of that model lives here and only here
    ({!rides_mw}): capacity planning, the routing schemes, the packet
    network and the failure replays all read it.  A failed link is a
    link the topology no longer holds: replays build the surviving
    topology ({!remove}) and route over it. *)

module Iset : Set.S with type elt = int

type t = {
  inputs : Inputs.t;
  built : (int * int) list;      (** site index pairs, i < j *)
  index : Iset.t;
      (** packed-pair membership mirror of [built]; makes {!is_built}
          O(log built) while [built] keeps the construction order that
          {!distances}'s fold observes *)
  cost : int;                    (** total towers used *)
}

val empty : Inputs.t -> t
val of_links : Inputs.t -> (int * int) list -> t
(** Normalizes pairs to i < j, dedups, sums cost.  Raises
    [Invalid_argument] if a pair has no feasible MW link. *)

val is_built : t -> int -> int -> bool
val link_cost : Inputs.t -> int -> int -> int

val add : t -> int * int -> t
val remove : t -> int * int -> t

val distances : t -> float array array
(** All-pairs latency-equivalent distances over fiber + built links. *)

val distances_incremental : Inputs.t -> float array array -> int * int -> float array array
(** [distances_incremental inputs d (i, j)] is the exact metric after
    additionally building link (i,j), computed in O(n^2) from the
    current metric [d] (fresh matrix; [d] unchanged). *)

val fiber_baseline : Inputs.t -> float array array
(** Metric closure of the fiber mesh alone (the empty topology). *)

val mean_stretch : Inputs.t -> float array array -> float
(** Traffic-weighted mean stretch of a distance matrix: the paper's
    objective sum h_st * D_st / d_st (with h normalized).  Pairs with
    zero geodesic distance contribute stretch 1. *)

val stretch_of : t -> float
(** [mean_stretch] of [distances t]. *)

val pair_stretch : Inputs.t -> float array array -> int -> int -> float

(** {2 The site network} *)

type medium = Mw | Fiber

val rides_mw : t -> int -> int -> bool
(** [rides_mw t i j]: traffic between sites [i] and [j] rides their MW
    link, because it is built and strictly shorter than the fiber
    pair; otherwise (a tie included) it rides fiber. *)

val hop_km : t -> int -> int -> float
(** Latency-equivalent length of the pair's one edge: the MW length
    when {!rides_mw}, else the fiber length ([infinity] when neither
    medium connects the pair). *)

val edges : t -> (int * int) array
(** Every connected pair (i, j), i < j, once, in descending pair
    order: the order {!routes} and the congestion-aware routing
    schemes insert them into their site graphs. *)

val routes : t -> demands:float array array -> ((int * int) * int array) list
(** Shortest site route of every commodity (s, t), s <> t, with
    [demands.(s).(t) > 0], over one {!hop_km} edge per connected pair
    (one pool-parallel Dijkstra per source), in ascending (s, t) order.
    Unreachable commodities are left out. *)
