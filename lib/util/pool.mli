(** The one parallel loop, for the embarrassingly parallel hot paths
    (APSP, greedy candidate scoring, LOS sweeps, Monte Carlo trials).

    Design contract: parallelism only changes {e when} work runs,
    never {e what} is computed.  {!parallel_for} is the whole
    interface: each index writes only its own output slot, and the
    caller then folds the slots sequentially in index order, so
    results (float sums included) are bit-identical whatever the
    width, including 1, which degrades to a plain sequential loop with
    no domains spawned.

    Every loop runs on one process-wide pool: a fixed set of
    long-lived worker domains fed from a shared chunk counter (no work
    stealing, no per-worker deques), created lazily on first use and
    recycled when the requested width changes.  Its width comes from
    (in priority order) {!set_default_jobs} / a [--jobs] CLI flag, the
    [CISP_JOBS] environment variable, then
    [Domain.recommended_domain_count]. *)

val default_jobs : unit -> int
(** The width the pool has (or would be created with). *)

val set_default_jobs : int -> unit
(** Override the width ([--jobs]); clamped to at least 1.  Takes
    effect at the next {!parallel_for} that wakes the pool. *)

val with_default_jobs : int -> (unit -> 'a) -> 'a
(** [with_default_jobs k f] runs [f] with the width forced to [k],
    restoring the previous setting afterwards (exception-safe).  It is
    the only way a test sets a width: the determinism tests run the
    same pipeline under several. *)

val parallel_for : n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f 0 .. f (n-1)], each index exactly
    once, in parallel.  The body must only write state owned by its
    own index.  An exception raised by any [f i] cancels the remaining
    chunks and is re-raised (with its backtrace) in the caller.

    Workers and the caller claim chunks of [max 1 (n / (width * 8))]
    indices from a shared counter.  The loop runs inline on the
    calling domain, without waking a worker or consulting the pool,
    when [n <= 1] and when it is nested: issued from inside another
    loop's body, at any depth.  So no worker ever takes the pool's
    registry lock.  At width 1, and for a loop submitted from another
    domain while the pool is busy, it runs inline too.  Chunking
    affects scheduling only, never results.

    A wake-up of the pool costs far more than a cheap index: a body
    of a few thousand flops or less (one row of an O(n{^2}) matrix
    update at a few hundred sites) belongs in a plain [for] loop. *)
