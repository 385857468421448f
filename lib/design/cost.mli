(** The paper's cost model (§2).

    "The cost of installing a bidirectional MW link, on existing
    towers, is approximately $75K ($150K) for 500 Mbps (1 Gbps)
    bandwidth.  The average cost for building a new tower is $100K...
    the dominant operational expense, by far, is tower rent: $25-50K
    per year per tower.  We estimate cost per GB by amortizing the sum
    of building costs and operational costs over 5 years." *)

type t = {
  radio_1gbps_usd : float;        (** per hop per series, installed *)
  new_tower_usd : float;
  tower_rent_usd_per_year : float;
  amortization_years : float;
}

val default : t
(** $150K / $100K / $40K / 5 years. *)

val capex_usd : t -> radios:int -> new_towers:int -> float

val opex_usd : t -> rented_towers:int -> float
(** Rent over the amortization window. *)

val total_usd : t -> radios:int -> new_towers:int -> rented_towers:int -> float

val cost_per_gb : t -> total_usd:float -> aggregate_gbps:float -> float
(** Total cost divided by the GB delivered at [aggregate_gbps] over
    the amortization window. *)
