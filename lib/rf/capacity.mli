(** Microwave channel capacity model (paper §2).

    With wide channels, high-order QAM and radio multiplexing, a single
    tower-to-tower link sustains about 1 Gbps; this module exposes that
    constant and the modulation arithmetic behind it so that capacity
    planning (§3.3) and cost modelling stay consistent. *)

val hop_gbps : float
(** Design data rate of one bidirectional MW hop: 1 Gbps. *)

val qam_bits_per_symbol : int -> int
(** [qam_bits_per_symbol m] for m-QAM (m a power of 4): log2 m.
    Raises [Invalid_argument] if [m] < 4 or not a power of two. *)

val qam_gbps :
  bandwidth_mhz:float -> qam:int -> coding_rate:float -> channels:int -> float
(** Practical rate: symbol rate ~ bandwidth (Nyquist), times bits per
    symbol, coding rate, and multiplexed channel count. *)

val series_for_gbps : float -> int
(** Paper §3.3 k-squared augmentation: the number of parallel tower
    series needed for a target link bandwidth — k series yield k^2 Gbps
    (1 series up to 1 Gbps, 2 for (1,4], 3 for (4,9], ...). *)

val gbps_of_series : int -> float
(** Capacity provided by [k] parallel series: k^2 * [hop_gbps]. *)
