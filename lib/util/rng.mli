(** Deterministic pseudo-random number generation.

    All randomness in the cISP libraries flows through this module so
    that every scenario, test, and benchmark is reproducible
    bit-for-bit from a fixed seed.  The generator is splitmix64, which
    is fast and has a 64-bit state. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound).  [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in \[lo, hi). *)

val gaussian : t -> float
(** Standard normal via Box-Muller. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate); mean [1. /. rate]. *)

val poisson : t -> float -> int
(** [poisson t mean] samples a Poisson variate (Knuth for small means,
    normal approximation above 50). *)

val lognormal : t -> float -> float -> float
(** [lognormal t mu sigma] is [exp (mu + sigma * gaussian)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> 'a array -> int -> 'a array
(** [sample t arr k] draws [k] distinct elements uniformly (k <= length). *)
