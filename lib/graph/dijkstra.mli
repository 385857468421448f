(** Shortest paths: the pipeline's one search over {!Graph.t}.

    One relaxation loop serves every caller.  It skips removed edges,
    reads a node's arcs in the graph's order and improves a distance
    only strictly, so among equal-length paths it keeps the one whose
    arcs come first (decreasing edge id).  It records each node's
    parent, the edge it arrived by and the order nodes settled in,
    which is what {!repair}, the one incremental operation, works
    from. *)

type t = private {
  graph : Graph.t;
  dist : float array;    (** infinity where unreached *)
  prev : int array;      (** parent node; -1 at the source and unreached *)
  via : int array;       (** edge from the parent; -1 at the source and unreached *)
  state : Bytes.t;
  order : int array;     (** settled nodes, in settle order *)
  mutable n_order : int;
  heap : Heap.t;
  repaired : int array;
  mutable settles : int; (** nodes settled over the search's life *)
}

val create : Graph.t -> t
(** A search over [g] with nothing settled, for {!search}. *)

val search : t -> src:int -> unit
(** Full single-source search from [src], reusing the arrays of a [t]
    from {!create} or an earlier [search]; [settles] keeps counting. *)

val repair : t -> unit
(** After a full {!search} or {!run}, once edges of the graph were
    removed, some on the tree: re-settles the nodes whose tree path
    crossed one, leaving the others as they are.  The result is a shortest-path tree of the
    graph as it now stands (ties aside: a repaired node takes the
    first best settled neighbour in its own arc order). *)

val run : Graph.t -> src:int -> t
(** Single-source Dijkstra. *)

val run_to : Graph.t -> src:int -> dst:int -> t
(** {!run} stopped once [dst] settles: its distance, parent and edge
    are final, and so are those of the nodes settled before it. *)

val path : t -> dst:int -> int list
(** Node sequence from the source to [dst]; [] if unreachable. *)

val path_edges : t -> dst:int -> int list
(** Edge ids from the source to [dst]; [] if unreachable or [dst] is
    the source. *)

val shortest_path : Graph.t -> src:int -> dst:int -> (float * int list) option
(** Distance and node list, or [None] if unreachable. *)

val all_pairs_results : Graph.t -> sources:int array -> t array
(** Dijkstra from each listed source, in parallel on the domain pool;
    entry [k] is the full search from [sources.(k)].  This is the
    pipeline's APSP primitive (telemetry span ["apsp"]). *)

val all_pairs : Graph.t -> float array array
(** Dijkstra from every node; suited to sparse graphs.  Result is
    [dist.(u).(v)]. *)
