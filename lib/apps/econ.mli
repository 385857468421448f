(** Cost-benefit estimates (paper §8).

    Quantitative lower bounds on cISP's value per GB in three
    application areas, reconstructed from the paper's cited published
    constants, to be compared against the network's cost per GB
    (~$0.81 at 100 Gbps).  The constants are fixed:
    - web search: 12 Gbps of US search traffic, and $87M / $177M a
      year of profit gained from a 200 / 400 ms speedup;
    - e-commerce: 483 PB of yearly traffic, $7.9B of yearly profit,
      1% to 7% more conversions per 100 ms, and under 10% of the bytes
      riding cISP;
    - gaming: a $4-a-month accelerated VPN, 8 hours a day of
      "full-time gaming" at 10 Kbps per player. *)

type range = { low : float; high : float }

val search_value_per_gb : speedup_ms:float -> float
(** Linear interpolation between the paper's two anchor speedups. *)

val ecommerce_value_per_gb : speedup_ms:float -> range

val gaming_value_per_gb : unit -> float

val steam_us_aggregate_gbps :
  players:int -> us_share:float -> kbps_per_player:float -> float
(** §6.6: 16M players x 17% US x 10 Kbps ~ 27 Gbps. *)

(** {2 Summary} *)

type verdict = { application : string; value_per_gb : range; exceeds_cost : bool }

val summary : cost_per_gb:float -> verdict list
(** The paper's bottom line: every application's value per GB
    substantially exceeds the cost per GB. *)
