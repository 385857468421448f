module Attenuation = Cisp_rf.Attenuation
module Link_budget = Cisp_rf.Link_budget
module Hops = Cisp_towers.Hops

type params = { margin_floor_db : float; margin_cap_db : float }

let default_params = { margin_floor_db = 10.0; margin_cap_db = 38.0 }

(* Paper §3.1: the carrier, and the polarization rain attenuates. *)
let f_ghz = 11.0
let polarization = Attenuation.Horizontal

let margin_db params ~d_km =
  let m = Link_budget.fade_margin_db ~f_ghz ~d_km:(Float.max 1.0 d_km) in
  Float.min params.margin_cap_db (Float.max params.margin_floor_db m)

let hop_margin_db ~d_km = margin_db default_params ~d_km

let attenuation ~rain_mm_h ~d_km =
  Attenuation.path_attenuation_db ~f_ghz polarization ~rain_mm_h ~d_km

let hop_failed ~rain_mm_h ~d_km = attenuation ~rain_mm_h ~d_km > hop_margin_db ~d_km

let link_failed ~node_position field (link : Hops.link) =
  List.exists
    (fun (u, v) ->
      let pu = node_position u and pv = node_position v in
      let d = Cisp_geo.Geodesy.distance_km pu pv in
      (* A zero-length hop (degenerate co-located endpoints) has no
         path for rain to attenuate and no well-defined midpoint to
         sample — it can never fail. *)
      d > 0.0
      &&
      let mid = Cisp_geo.Geodesy.midpoint pu pv in
      let rain = Rainfield.rain_at field mid in
      rain > 0.05 && hop_failed ~rain_mm_h:rain ~d_km:d)
    (Hops.hops_of_link link)

let built_link_failed ~node_position ~sites field ((i, j), link) =
  match link with
  | Some l -> link_failed ~node_position field l
  | None ->
    let rain =
      Rainfield.rain_at field
        (Cisp_geo.Geodesy.midpoint sites.(i).Cisp_data.City.coord
           sites.(j).Cisp_data.City.coord)
    in
    hop_failed ~rain_mm_h:rain ~d_km:60.0

let hop_loss_probability ?(params = default_params) ~rain_mm_h ~d_km () =
  let margin = margin_db params ~d_km in
  let att = attenuation ~rain_mm_h ~d_km in
  let deficit = att -. margin in
  (* Fading floor ~0.1%; a logistic ramp turns a margin deficit into
     rising loss, saturating at full outage. *)
  let floor = 0.0007 in
  let ramp = 1.0 /. (1.0 +. exp (-.deficit /. 2.5)) in
  Float.min 1.0 (floor +. (ramp *. (1.0 -. floor)))
