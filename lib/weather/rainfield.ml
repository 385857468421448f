module Rng = Cisp_util.Rng
module Coord = Cisp_geo.Coord
module Geodesy = Cisp_geo.Geodesy

type storm = { center : Coord.t; radius_km : float; peak_mm_h : float }
type t = { day : int; base_mm_h : float; storms : storm list }

type climate = {
  bbox : Coord.bbox;
  mean_storms_per_interval : float;
  wetness : Coord.t -> float;
}

let us_bbox = { Coord.min_lat = 25.0; max_lat = 49.0; min_lon = -125.0; max_lon = -66.0 }
let eu_bbox = { Coord.min_lat = 36.0; max_lat = 62.0; min_lon = -10.0; max_lon = 30.0 }

(* Wetter towards the gulf coast and southeast; drier in the interior
   west — a coarse but recognizable US precipitation map. *)
let us_wetness p =
  let lat = Coord.lat p and lon = Coord.lon p in
  let southeast = exp (-.(((lat -. 31.0) /. 8.0) ** 2.0) -. (((lon +. 88.0) /. 14.0) ** 2.0)) in
  let pacific_nw = exp (-.(((lat -. 46.5) /. 4.0) ** 2.0) -. (((lon +. 122.5) /. 5.0) ** 2.0)) in
  let desert = exp (-.(((lat -. 36.0) /. 7.0) ** 2.0) -. (((lon +. 112.0) /. 8.0) ** 2.0)) in
  Float.max 0.15 (0.6 +. (1.8 *. southeast) +. (1.2 *. pacific_nw) -. (0.5 *. desert))

let eu_wetness p =
  let lat = Coord.lat p and lon = Coord.lon p in
  (* Atlantic fringe is wet; the continental east is drier. *)
  let atlantic = exp (-.((lon +. 5.0) /. 12.0) ** 2.0) in
  Float.max 0.2 (0.7 +. (1.0 *. atlantic) +. (0.3 *. exp (-.(((lat -. 46.0) /. 8.0) ** 2.0))))

let us_climate = { bbox = us_bbox; mean_storms_per_interval = 14.0; wetness = us_wetness }
let eu_climate = { bbox = eu_bbox; mean_storms_per_interval = 11.0; wetness = eu_wetness }

(* Seasonal modulation: day 0 = July 1.  Summer (day ~0 and ~365) has
   more, smaller, more intense convective cells; winter (day ~180)
   fewer but wider systems. *)
let season_factor day =
  let phase = 2.0 *. Float.pi *. float_of_int day /. 365.0 in
  1.0 +. (0.35 *. cos phase)

let sample ?(seed = 1234) climate ~day =
  if not (day >= 0 && day < 366) then invalid_arg "Rainfield.sample: day outside [0, 366)";
  let rng = Rng.create (seed + (day * 7919)) in
  let summer = season_factor day in
  let mean = climate.mean_storms_per_interval *. summer in
  let count = Rng.poisson rng mean in
  let rec draw_center tries =
    let lat = Rng.uniform rng climate.bbox.Coord.min_lat climate.bbox.Coord.max_lat in
    let lon = Rng.uniform rng climate.bbox.Coord.min_lon climate.bbox.Coord.max_lon in
    let p = Coord.make ~lat ~lon in
    (* rejection-sample against the wetness map *)
    if tries > 8 || Rng.float rng 3.0 < climate.wetness p then p else draw_center (tries + 1)
  in
  let storms =
    List.init count (fun _ ->
        let center = draw_center 0 in
        (* Convective (small, intense) vs stratiform (wide, weak). *)
        let convective = Rng.float rng 1.0 < 0.35 +. (0.25 *. (summer -. 1.0) /. 0.35) in
        if convective then
          {
            center;
            radius_km = Rng.uniform rng 15.0 60.0;
            peak_mm_h = Rng.lognormal rng (log 45.0) 0.7;
          }
        else
          {
            center;
            radius_km = Rng.uniform rng 60.0 250.0;
            peak_mm_h = Rng.lognormal rng (log 7.0) 0.5;
          })
  in
  { day; base_mm_h = 0.0; storms }

let rain_at t p =
  List.fold_left
    (fun acc s ->
      let d = Geodesy.distance_km s.center p in
      let x = d /. s.radius_km in
      Float.max acc (s.peak_mm_h *. exp (-.(x *. x))))
    t.base_mm_h t.storms

let uniform ~mm_h = { day = 0; base_mm_h = mm_h; storms = [] }

let hurricane ~center =
  {
    day = 120;
    base_mm_h = 0.0;
    storms =
      [
        { center; radius_km = 450.0; peak_mm_h = 28.0 };
        { center; radius_km = 180.0; peak_mm_h = 65.0 };
        { center; radius_km = 60.0; peak_mm_h = 120.0 };
      ];
  }
