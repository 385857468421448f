(** Successive disjoint shortest paths for multipath routing and fast
    failover.

    The remove-and-repeat greedy behind paper Fig 4(b) and the
    k-disjoint failover and split schemes: after each shortest-path
    round a caller-chosen set of edges is removed from a working copy
    and the search repeats.  The removal policy decides the notion of
    disjointness (every edge at a tower the path used for Fig 4(b),
    the path's own MW or fiber edges for [Cisp_sim.Routing]).

    Leaves the input graph unmodified and is deterministic (pure
    function of the graph and arguments). *)

val successive :
  Graph.t -> src:int -> dst:int -> k:int ->
  remove:(Graph.t -> int list -> unit) ->
  (float * int list) list
(** [successive g ~src ~dst ~k ~remove] finds up to [k] (length, node
    path) results: each round runs Dijkstra on a {!Graph.copy} of [g],
    reports the path, then calls [remove] with the copy and the
    path's edge ids, from [src] on, to {!Graph.remove} what the next
    rounds may not use.  Stops early when [dst] becomes unreachable.
    [remove] must remove at least one edge of the path per round or
    the same path is reported again (bounded by [k]).  Raises
    [Invalid_argument] if [k < 0]. *)
