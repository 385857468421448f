(** Shortest paths. *)

type result = {
  dist : float array;    (** infinity where unreachable *)
  prev : int array;      (** -1 at sources / unreachable *)
}

val run : Graph.t -> src:int -> result
(** Single-source Dijkstra. *)

val path : result -> dst:int -> int list
(** Node sequence from the source to [dst]; [] if unreachable. *)

val shortest_path : Graph.t -> src:int -> dst:int -> (float * int list) option
(** Distance and node list, or [None] if unreachable. *)

val all_pairs_results : Graph.t -> sources:int array -> result array
(** Dijkstra from each listed source, in parallel on the domain pool;
    entry [k] is the full {!result} for [sources.(k)].  This is the
    pipeline's APSP primitive (telemetry span ["apsp"]). *)

val all_pairs : Graph.t -> float array array
(** Dijkstra from every node; suited to sparse graphs.  Result is
    [dist.(u).(v)]. *)
