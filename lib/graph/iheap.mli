(** Monomorphic min-heap: float keys, int payloads, flat unboxed
    columns.  Pop order for any key sequence is bit-identical to
    {!Heap} (same sift logic); unlike {!Heap} every operation except
    amortized growth is allocation-free, so it is the priority queue
    of Dijkstra's zero-alloc relaxation loop. *)

type t

val create : unit -> t
val length : t -> int

val push : t -> float -> int -> unit

val min_key : t -> float
(** Smallest key.  Raises [Invalid_argument] on an empty heap. *)

val pop_min : t -> int
(** Remove and return the payload of the smallest key.  Raises
    [Invalid_argument] on an empty heap.  Read {!min_key} first when
    the key is needed — no pair is ever built. *)
