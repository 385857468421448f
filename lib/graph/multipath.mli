(** k-disjoint shortest paths for multipath routing and fast failover.

    The remove-and-repeat greedy behind paper Fig 4(b), with a
    pluggable removal policy: after each shortest-path round a
    caller-chosen piece of the found path is deleted from a working
    copy and the search repeats.  Edge- and node-disjoint modes cover
    the two classic notions; {!k_paths} tops the disjoint set up with
    Yen's ranked paths when the graph cannot supply [k] fully disjoint
    routes, so a failover table always has [k] candidates where the
    graph allows [k] distinct simple paths at all.

    Every function leaves the input graph unmodified and is
    deterministic (pure function of the graph and arguments). *)

type disjointness =
  | Edge_disjoint
      (** successive paths share no undirected node pair (all parallel
          edges between a used pair are consumed at once) *)
  | Node_disjoint
      (** successive paths additionally share no interior node *)

val successive :
  Graph.t -> src:int -> dst:int -> k:int ->
  remove:(Graph.t -> float * int list -> unit) ->
  (float * int list) list
(** [successive g ~src ~dst ~k ~remove] finds up to [k] (length, node
    path) results: each round runs Dijkstra on a private working copy,
    reports the path, then applies [remove] to the working copy.
    Stops early when [dst] becomes unreachable.  [remove] must delete
    at least one edge of the reported path per round or the same path
    is reported again (bounded by [k]).  Raises [Invalid_argument] if
    [k < 0]. *)

val k_disjoint :
  ?disjointness:disjointness ->
  Graph.t -> src:int -> dst:int -> k:int ->
  (float * int list) list
(** Up to [k] pairwise disjoint shortest paths, greedily shortest
    first (lengths are monotone nondecreasing).  [disjointness]
    defaults to [Edge_disjoint].  [Node_disjoint] removes every
    interior node of each found path (its edges with it) and also the
    path's own edges, so a degenerate direct [src]-[dst] edge is
    consumed too. *)

val k_paths :
  ?disjointness:disjointness ->
  Graph.t -> src:int -> dst:int -> k:int ->
  (float * int list) list
(** {!k_disjoint} results first (the disjoint prefix is the failover
    priority order), then — if fewer than [k] disjoint routes exist —
    additional distinct simple paths from {!Kshortest.yen}, cheapest
    first, up to [k] total.  The combined list is therefore sorted by
    priority, not necessarily by length. *)
