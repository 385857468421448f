(** Work-stealing-free domain pool for the embarrassingly parallel
    hot paths (APSP, greedy candidate scoring, LOS sweeps, Monte
    Carlo trials).

    Design contract: parallelism only changes {e when} work runs,
    never {e what} is computed.  {!parallel_for} is the one loop:
    each index writes only its own output slot, and the caller then
    folds the slots sequentially in index order, so results
    (float sums included) are bit-identical whatever the pool size,
    including [jobs = 1], which degrades to a plain sequential loop
    with no domains spawned.

    A pool is a fixed set of long-lived worker domains fed from a
    shared chunk counter (no work stealing, no per-worker deques).
    Nested or concurrent submissions are safe: a [parallel_for] issued
    from inside a worker task, or while another job is in flight, runs
    sequentially on the calling domain instead of deadlocking. *)

type t
(** A pool of worker domains. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains (the submitting
    thread is the remaining worker).  [jobs] is clamped to at least 1;
    at 1 no domains are spawned and every combinator runs inline. *)

val jobs : t -> int
(** Parallel width of the pool (>= 1). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  Using the pool afterwards
    degrades to sequential execution. *)

(** {2 Default pool}

    Library hot paths share one process-wide pool sized by (in
    priority order) {!set_default_jobs} / a [--jobs] CLI flag, the
    [CISP_JOBS] environment variable, then
    [Domain.recommended_domain_count].  It is created lazily on first
    use and recycled automatically when the requested width changes. *)

val default_jobs : unit -> int
(** The width the default pool has (or would be created with). *)

val set_default_jobs : int -> unit
(** Override the default width ([--jobs]); clamped to at least 1.
    Takes effect at the next {!get}. *)

val with_default_jobs : int -> (unit -> 'a) -> 'a
(** [with_default_jobs k f] runs [f] with the default width forced to
    [k], restoring the previous setting afterwards (exception-safe).
    The workhorse of the determinism tests. *)

val get : unit -> t
(** The shared default pool (created or resized on demand). *)

(** {2 The parallel loop} *)

val parallel_for : ?min_chunk:int -> t -> n:int -> (int -> unit) -> unit
(** [parallel_for pool ~n f] runs [f 0 .. f (n-1)], each index exactly
    once, in parallel.  The body must only write state owned by its
    own index.  An exception raised by any [f i] cancels the remaining
    chunks and is re-raised (with its backtrace) in the caller.

    [min_chunk] (default 1, clamped to at least 1) is a cost hint: the
    smallest number of indices worth one claim of the shared chunk
    counter.  Give cheap bodies a large [min_chunk] so workers do not
    spin on the atomic; leave it at 1 for bodies whose per-index cost
    dwarfs a claim (an APSP source, a weather trial batch).  When the
    whole range fits in one chunk ([n <= min_chunk] on small [n]) the
    loop short-circuits to the calling domain without waking any
    worker — the submitter would otherwise claim every chunk before
    the workers stir, paying wake-up cost for zero parallelism.
    Chunking affects scheduling only, never results. *)

val parallel_for_default : ?min_chunk:int -> n:int -> (int -> unit) -> unit
(** [parallel_for_default ~n f] is [parallel_for (get ()) ~n f],
    except that a nested call (from inside a pool body) falls back to
    the calling domain {e before} consulting the pool registry — a
    worker never acquires [default_lock].  Use it from code that may
    run either at top level or inside another parallel loop (e.g.
    [Topology.distances_incremental] under a weather sweep). *)
