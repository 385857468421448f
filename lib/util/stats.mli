(** Small statistics toolkit used by the evaluation harness. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val variance : float array -> float
(** Population variance. *)

val stddev : float array -> float

val min_max : float array -> float * float
(** Raises [Invalid_argument] on the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] for p in \[0,100\], linear interpolation between
    order statistics.  Does not mutate [xs].  Raises
    [Invalid_argument] on the empty array. *)

val median : float array -> float

val cdf : float array -> (float * float) array
(** Empirical CDF as (value, cumulative fraction) sorted points. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

val summarize : float array -> summary
(** One-shot descriptive summary (returns all-zero summary on empty). *)

val pp_summary : Format.formatter -> summary -> unit
