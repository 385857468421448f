(** Pipeline-wide structured observability: named counters, float
    distributions (via {!Stats}), and nested timed spans, with two
    sinks — a human-readable end-of-run summary and a JSONL trace file
    whose lines are Chrome-trace-compatible events ([ph]/[ts]/[dur]).

    The layer {e only observes}: nothing it records feeds back into
    pipeline results, so outputs are bit-identical with telemetry on
    or off, at any pool width.  It is domain-safe (atomic counters;
    other state under one mutex; read-outs canonicalized by sorting)
    and near-free when disabled — every recording call bails on a
    single branch.

    Globally scoped, like {!Pool}: binaries enable it from [--trace] /
    [--metrics] flags or the [CISP_TRACE] environment variable, and
    library code records unconditionally (the disabled path is a
    no-op). *)

(** {2 Enablement} *)

val enabled : unit -> bool
(** True once a sink is configured; instrumentation guards on this. *)

val enable_trace : string -> unit
(** Send a JSONL trace to the given file when {!finish} runs. *)

val enable_metrics : unit -> unit
(** Print a summary (to {!finish}'s formatter) at the end of the run. *)

val init_from_env : unit -> unit
(** [CISP_TRACE=FILE] fallback for binaries without a [--trace] flag. *)

val reset : unit -> unit
(** Drop every recording and disable all sinks (tests). *)

(** {2 Recording} *)

val incr : string -> unit
(** Add 1 to a named counter (atomic; safe from any domain). *)

val add : string -> int -> unit

val observe : string -> float -> unit
(** Record one sample of a named distribution.  Lock-free: samples
    buffer in the recording domain's private scratch (one cons), so
    workers never serialize on the telemetry mutex; read-outs merge
    the buffers and sort, giving the same summary at any pool
    width. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named timed span.  Spans nest; each
    completion is aggregated per name and, when tracing, emitted as a
    Chrome-trace ['X'] event with the recording domain's id as [tid].
    The span is recorded even if the thunk raises. *)

(** {2 Read-out (summary sink and tests)} *)

val counter : string -> int
(** Current value; 0 for a name never incremented. *)

val samples : string -> float array
(** All recorded samples of a distribution, sorted ascending (so the
    result is independent of domain scheduling); [[||]] if none.
    Coherent for samples recorded by domains that have since been
    joined (or otherwise synchronized with the caller) — quiesce, then
    read. *)

val series_names : unit -> string list
(** Every distribution with at least one recorded sample, sorted. *)

val span_calls : string -> int
val span_total_s : string -> float

val pp_summary : Format.formatter -> unit -> unit
(** The human-readable sink: spans, counters and distributions, each
    sorted by name. *)

(** {2 Sinks} *)

val write_trace : unit -> unit
(** Write the JSONL trace now (no-op unless {!enable_trace} was
    called).  One event per line; span events carry
    [ph:"X"]/[ts]/[dur] in microseconds since enablement, counters are
    appended as [ph:"C"] samples holding their final values. *)

val finish : ?ppf:Format.formatter -> unit -> unit
(** End-of-run hook for binaries: writes the trace and, if metrics are
    enabled, prints the summary to [ppf] (default
    [Format.err_formatter]).  Idempotent until the next {!reset}. *)
