(** Probabilistic route refinement (paper §6.5, last paragraph).

    "We assign each tower in a swathe connecting the sites an
    acquisition probability, which depends on a number of factors
    (e.g., tower type, ownership, location).  Further, for towers that
    can be acquired, we use a uniform distribution to model height at
    which space for antennae is available.  With this probabilistic
    model, we compute thousands of candidate MW paths between site
    pairs, with refinements as acquisitions and height availabilities
    are confirmed."

    A refinement session tracks per-tower knowledge (unknown /
    acquired with a height fraction / rejected), Monte-Carlo samples
    the unknowns to produce candidate path distributions, and sharpens
    as ground truth arrives.

    The prior is fixed: a rental tower can be acquired with
    probability 0.85, a city rooftop 0.7 and an FCC structure 0.6, and
    an acquired tower's available height fraction is uniform on
    [0.4, 1]; the Monte-Carlo draws use a fixed seed. *)

type knowledge =
  | Unknown
  | Acquired of float   (** available height fraction in (0, 1] *)
  | Rejected

type t

val create : hops:Hops.t -> src:int -> dst:int -> t
(** Session for one site pair ([src], [dst] are site indices). *)

val confirm : t -> tower:int -> knowledge -> unit
(** Record ground truth for tower index [tower] (index into the
    registry, not a graph node id). *)

val sample_paths : ?samples:int -> t -> (float * int list) list
(** Monte-Carlo over the unknowns (default 200 samples): each sample
    draws acquisitions and heights, keeps the hops whose endpoint
    towers are usable, and records the shortest viable tower path.
    Returns the distinct paths found with their lengths, sorted by
    length. *)

type stats = {
  viability : float;         (** fraction of samples with any path *)
  length_p50_km : float;
  length_p95_km : float;
  distinct_paths : int;
}

val stats : ?samples:int -> t -> stats

val committed_path : t -> (float * int list) option
(** The shortest path through towers already confirmed [Acquired]
    (and sites); [None] until enough towers are confirmed. *)
