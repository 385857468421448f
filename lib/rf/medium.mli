(** Line-of-sight transmission media (paper §3.4, "Generality").

    "The above outlined approach applies broadly across other
    line-of-sight media, such as free-space optics and millimeter
    wave networking.  Multiple technologies ... can be easily
    incorporated into this framework."  And §4: at sufficiently high
    bandwidth "one could use the same number of towers to construct a
    single line of towers with shorter tower-tower distances.  This
    can make shorter-range, but higher-bandwidth technologies like
    MMW or free-space optics more cost-effective."

    This module captures the per-technology envelope the design
    pipeline needs: range, per-hop bandwidth and cost. *)

type technology = Microwave | Millimeter_wave | Free_space_optics

type t = {
  technology : technology;
  name : string;
  max_range_km : float;     (** practical hop length at high availability *)
  hop_gbps : float;         (** data rate of one hop *)
  radio_usd : float;        (** per hop, both ends, installed *)
  max_parallel_chains : int option;
      (** siting / angular-separation cap on parallel chains; the 6-degree
          separation and 10.6 km lateral spread bound MW's k-squared
          trick in practice *)
}

val microwave : t
(** 11 GHz, 100 km, 1 Gbps, $150K — the paper's baseline. *)

val millimeter_wave : t
(** E-band-style: ~80 GHz, 15 km hops, 10 Gbps. *)

val free_space_optics : t
(** ~3 km hops, 40 Gbps; rain-insensitive but fog-limited. *)

(** {2 Link-level economics (the §4 observation)} *)

type chain_cost = {
  medium : t;
  hops : int;               (** hops to span the link at this range *)
  chains : int;             (** parallel chains for the target rate *)
  towers : int;             (** total tower positions *)
  radios : int;
  capex_usd : float;
}

val chain_for :
  t -> link_km:float -> target_gbps:float -> tower_usd:float -> chain_cost
(** Cost of serving [link_km] at [target_gbps] with this medium:
    MW uses the paper's k-squared parallel series; MMW / FSO use
    ceil(target / hop rate) parallel chains of short hops.  When the
    medium's chain cap cannot reach the target, [capex_usd] is
    [infinity]. *)

val cheapest_for :
  link_km:float -> target_gbps:float -> tower_usd:float -> chain_cost
(** The §4 crossover: pick the cheapest technology for a link at a
    bandwidth target (among the three media above). *)
