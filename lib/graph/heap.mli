(** Binary min-heap: float keys, int payloads, flat unboxed columns.

    The pipeline's one priority queue.  A caller with a richer payload
    keeps it in a side array and pushes its index.  Every operation
    except amortized growth is allocation-free.  Ties between equal
    keys are broken by the sift code, not by insertion order. *)

type t

val create : unit -> t
val length : t -> int

val push : t -> float -> int -> unit
(** [push h key v]. *)

val min_key : t -> float
(** Smallest key.  Raises [Invalid_argument] on an empty heap. *)

val pop_min : t -> int
(** Remove and return the payload of the smallest key.  Raises
    [Invalid_argument] on an empty heap.  Read {!min_key} first when
    the key is needed — no pair is ever built. *)
