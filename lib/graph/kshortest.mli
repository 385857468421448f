(** Yen's k-shortest loopless paths.

    Used by the alternative routing schemes (§5) to generate path
    choices per commodity beyond the shortest path. *)

val yen : Graph.t -> src:int -> dst:int -> k:int -> (float * int list) list
(** Up to [k] loopless paths in nondecreasing length order.  Returns
    fewer when the graph has fewer distinct paths, and [[]] when
    [k = 0].  Raises [Invalid_argument] if [k < 0]. *)
