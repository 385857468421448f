(** Successive disjoint shortest paths for multipath routing and fast
    failover.

    The remove-and-repeat greedy behind paper Fig 4(b) and the
    k-disjoint failover and split schemes: after each shortest-path
    round a caller-chosen piece of the found path is deleted from a
    working copy and the search repeats.  The removal policy decides
    the notion of disjointness (towers for Fig 4(b), medium-tagged
    parallel edges for [Cisp_sim.Routing]).

    Leaves the input graph unmodified and is deterministic (pure
    function of the graph and arguments). *)

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
