module Coord = Cisp_geo.Coord
module Geodesy = Cisp_geo.Geodesy

type result = {
  minutes : int;
  mean_loss : float;
  median_loss : float;
  loss_series : float array;
}

let chicago = Coord.make ~lat:41.88 ~lon:(-87.62)
let carteret = Coord.make ~lat:40.58 ~lon:(-74.23)

(* The paper notes this relay was "designed to absolutely minimize
   latency" with little or no FEC - i.e. engineered with far slimmer
   fade margins than a cISP link would be.  Model that with an
   aggressive margin profile. *)
let hft_params = { Failure.margin_floor_db = 8.0; margin_cap_db = 22.0 }

(* Relay hops along the great circle, and the weather seed. *)
let hops = 20
let seed = 7

let run ?(minutes = 2743) () =
  let hop_ends = Geodesy.sample_path chicago carteret ~step_km:(Geodesy.distance_km chicago carteret /. float_of_int hops) in
  let nh = Array.length hop_ends - 1 in
  let hop_mid k = Geodesy.midpoint hop_ends.(k) hop_ends.(k + 1) in
  let hop_len k = Geodesy.distance_km hop_ends.(k) hop_ends.(k + 1) in
  (* The trading window spans ~11 days; map each minute onto a day and
     refresh the weather field hourly. *)
  let minutes_per_day = 390 (* 9:30-16:00 *) in
  let climate = Rainfield.us_climate in
  let field_for minute =
    let day = minute / minutes_per_day in
    let hour = minute / 60 in
    let base = Rainfield.sample ~seed:(seed + hour) climate ~day:(100 + day) in
    (* Sandy-style: the system spends the last ~4 trading days of the
       window approaching and then sitting over the NJ end. *)
    if day >= 4 then begin
      let drift = Float.min 1.0 (float_of_int (day - 4) /. 2.0) in
      let center =
        Geodesy.interpolate (Coord.make ~lat:36.5 ~lon:(-70.0)) carteret ~frac:drift
      in
      let h = Rainfield.hurricane ~center in
      { base with Rainfield.storms = h.Rainfield.storms @ base.Rainfield.storms }
    end
    else base
  in
  let loss_series =
    Array.init minutes (fun minute ->
        let field = field_for minute in
        let survive = ref 1.0 in
        for k = 0 to nh - 1 do
          let rain = Rainfield.rain_at field (hop_mid k) in
          let p = Failure.hop_loss_probability ~params:hft_params ~rain_mm_h:rain ~d_km:(hop_len k) () in
          survive := !survive *. (1.0 -. p)
        done;
        1.0 -. !survive)
  in
  {
    minutes;
    mean_loss = Cisp_util.Stats.mean loss_series;
    median_loss = Cisp_util.Stats.median loss_series;
    loss_series;
  }
