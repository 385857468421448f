(** Rain-induced link failures (paper §6.1).

    "If attenuation exceeds a threshold that would degrade bandwidth,
    we conservatively consider a link to have failed."  A hop's
    threshold is its clear-air fade margin (longer hops have less
    margin); a link fails when any of its hops does.  Every hop is an
    11 GHz, horizontally polarized link (§3.1). *)

type params = {
  margin_floor_db : float;     (** minimum credible margin *)
  margin_cap_db : float;       (** cap (regulators limit TX power) *)
}
(** How a hop's fade margin is clamped.  cISP hops use a 10 dB floor
    and a 38 dB cap. *)

val hop_margin_db : d_km:float -> float

val hop_failed : rain_mm_h:float -> d_km:float -> bool
(** Binary failure of a single hop under uniform rain. *)

val link_failed :
  node_position:(int -> Cisp_geo.Coord.t) ->
  Rainfield.t ->
  Cisp_towers.Hops.link ->
  bool
(** Walks the link's physical hops, sampling rain at each hop
    midpoint. *)

val built_link_failed :
  node_position:(int -> Cisp_geo.Coord.t) ->
  sites:Cisp_data.City.t array ->
  Rainfield.t ->
  (int * int) * Cisp_towers.Hops.link option ->
  bool
(** The failure rule for a built site-to-site link [((i, j), link)]:
    {!link_failed} when it carries hop data, otherwise (synthetic
    instances) one 60 km hop with rain sampled at the midpoint of
    [sites.(i)] and [sites.(j)]. *)

val hop_loss_probability : ?params:params -> rain_mm_h:float -> d_km:float -> unit -> float
(** Smooth packet-loss model for the §2 HFT-relay study: negligible
    below margin, saturating above (a logistic in the attenuation
    margin deficit), plus a small multipath-fading floor.  [params]
    defaults to cISP's margins; the HFT relay passes its slimmer
    ones. *)
