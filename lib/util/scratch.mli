(** Per-domain scratch slots.

    Hot paths that need reusable mutable state per worker (LOS profile
    buffers, fBm loop state, telemetry buffers) allocate it through a
    {!t} instead of capturing shared state in a task closure: each
    domain lazily builds its own instance on first use, so {!Pool}
    tasks touch only domain-private memory and stay within the pool's
    determinism contract (rule L7).  The contract is on the user:
    scratch contents must never feed results — only the work computed
    {e into} them may. *)

type 'a t
(** A per-domain slot: one lazily-created ['a] per domain. *)

val create : (unit -> 'a) -> 'a t
(** [create init] makes a new slot; [init] runs once per domain, on
    that domain's first {!get}.  Call it at module level — each call
    claims a fresh slot in every domain's local storage. *)

val get : 'a t -> 'a
(** This domain's instance (created on first use).  The returned
    value is domain-private: using it requires no synchronization,
    and it must never escape to another domain. *)
