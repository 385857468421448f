module Coord = Cisp_geo.Coord

type relief = {
  center : Coord.t;
  axis_bearing_deg : float;
  half_length_km : float;
  half_width_km : float;
  peak_m : float;
}

type region = Us_continental | Europe | Flat | Custom of relief list

(* A relief with its point-independent trigonometry evaluated once at
   construction.  [mountain_amp] runs on every DEM evaluation — tens of
   millions of times per LOS sweep — and recomputing cos/sin of the
   (fixed) range center there dominated its cost.  The cached values
   are bit-identical to what the inline computation produced, because
   cos/sin of the same double is the same double. *)
type frelief = {
  lat_c : float;
  lon_c : float;
  cphi1 : float;              (* cos (deg_to_rad lat_c) *)
  sphi1 : float;              (* sin (deg_to_rad lat_c) *)
  caxis : float;              (* cos (deg_to_rad axis_bearing_deg) *)
  saxis : float;              (* sin (deg_to_rad axis_bearing_deg) *)
  half_length_km : float;
  half_width_km : float;
  peak_m : float;
  cutoff_km : float;          (* 2.5 half_length + 2.5 half_width *)
}

type t = {
  seed : int;
  frs : frelief array;    (* fused reliefs, in declaration order *)
  base_amp_m : float;     (* rolling-hill noise amplitude outside ranges *)
  base_floor_m : float;   (* continental base elevation *)
  west_ramp : bool;       (* Great-Plains-style westward elevation ramp *)
}

let mk_relief lat lon axis_bearing_deg half_length_km half_width_km peak_m =
  { center = Coord.make ~lat ~lon; axis_bearing_deg; half_length_km; half_width_km; peak_m }

(* Idealized major ranges; positions are approximate but geographically
   sensible, which is all the synthetic substitution needs. *)
let us_reliefs =
  [
    (* Rocky Mountains: Montana down to New Mexico. *)
    mk_relief 43.0 (-107.5) 170.0 1100.0 260.0 1900.0;
    (* Sierra Nevada / Cascades along the west coast interior. *)
    mk_relief 41.5 (-120.8) 175.0 900.0 150.0 1700.0;
    (* Appalachians: Georgia up to Maine. *)
    mk_relief 38.5 (-79.5) 35.0 900.0 180.0 800.0;
    (* Ozarks. *)
    mk_relief 36.5 (-92.5) 90.0 250.0 150.0 350.0;
  ]

let eu_reliefs =
  [
    (* Alps. *)
    mk_relief 46.5 9.5 80.0 500.0 150.0 2500.0;
    (* Pyrenees. *)
    mk_relief 42.7 0.5 95.0 220.0 70.0 1800.0;
    (* Carpathians. *)
    mk_relief 47.5 24.0 120.0 500.0 130.0 1300.0;
    (* Scandinavian mountains. *)
    mk_relief 62.0 9.0 30.0 700.0 150.0 1200.0;
    (* Dinaric Alps / Balkans. *)
    mk_relief 43.8 18.5 135.0 350.0 120.0 1200.0;
  ]

let fuse rl =
  let phi1 = Cisp_util.Units.deg_to_rad (Coord.lat rl.center) in
  let axis = Cisp_util.Units.deg_to_rad rl.axis_bearing_deg in
  {
    lat_c = Coord.lat rl.center;
    lon_c = Coord.lon rl.center;
    cphi1 = cos phi1;
    sphi1 = sin phi1;
    caxis = cos axis;
    saxis = sin axis;
    half_length_km = rl.half_length_km;
    half_width_km = rl.half_width_km;
    peak_m = rl.peak_m;
    cutoff_km = (2.5 *. rl.half_length_km) +. (2.5 *. rl.half_width_km);
  }

let make ~seed ~reliefs ~base_amp_m ~base_floor_m ~west_ramp =
  { seed; frs = Array.of_list (List.map fuse reliefs); base_amp_m; base_floor_m; west_ramp }

let create ?(seed = 42) region =
  match region with
  | Us_continental ->
    make ~seed ~reliefs:us_reliefs ~base_amp_m:90.0 ~base_floor_m:150.0 ~west_ramp:true
  | Europe ->
    make ~seed ~reliefs:eu_reliefs ~base_amp_m:80.0 ~base_floor_m:100.0 ~west_ramp:false
  | Flat -> make ~seed ~reliefs:[] ~base_amp_m:15.0 ~base_floor_m:100.0 ~west_ramp:false
  | Custom reliefs -> make ~seed ~reliefs ~base_amp_m:60.0 ~base_floor_m:100.0 ~west_ramp:false

(* Sum of Gaussian relief memberships, 1 at a range core falling off
   along and across its axis: the haversine distance and initial
   bearing of [Geodesy], inlined so the relief-constant trigonometry
   comes from [frelief] and the point-dependent cos/sin(lat) is shared
   by every relief.  The bearing itself is never materialized: the
   Gaussian only consumes cos/sin of (bearing - axis), which come
   straight from the bearing's atan2 operands — cos(atan2 y x) is
   x/|(x,y)| — rotated by the precomputed axis angle.  That replaces
   atan2 plus two trig calls and two angle-unit round-trips per relief
   with one sqrt, at the cost of low-order-bit differences from the
   textbook formulation (the weight field is smooth; nothing downstream
   resolves ulps). *)
let mountain_amp t p =
  let nr = Array.length t.frs in
  if nr = 0 then 0.0
  else begin
    let rad = Cisp_util.Units.deg_to_rad in
    let r = Cisp_util.Units.earth_radius_km in
    let lat_p = Coord.lat p and lon_p = Coord.lon p in
    let phi2 = rad lat_p in
    let cphi2 = cos phi2 and sphi2 = sin phi2 in
    let acc = ref 0.0 in
    for i = 0 to nr - 1 do
      let fr = Array.unsafe_get t.frs i in
      let dphi = rad (lat_p -. fr.lat_c) in
      let dlam = rad (lon_p -. fr.lon_c) in
      let s1 = sin (dphi /. 2.0) and s2 = sin (dlam /. 2.0) in
      let h = (s1 *. s1) +. (fr.cphi1 *. cphi2 *. s2 *. s2) in
      let d = 2.0 *. r *. asin (Float.min 1.0 (sqrt h)) in
      if d <= fr.cutoff_km then begin
        (* Half-angle identities recover sin/cos of dlam from the s2
           already computed for the haversine — one libm call instead
           of two. *)
        let c2 = cos (dlam /. 2.0) in
        let sdlam = 2.0 *. s2 *. c2 in
        let cdlam = 1.0 -. (2.0 *. s2 *. s2) in
        let y = sdlam *. cphi2 in
        let x = (fr.cphi1 *. sphi2) -. (fr.sphi1 *. cphi2 *. cdlam) in
        let n = sqrt ((x *. x) +. (y *. y)) in
        (* (x, y) vanishes only at the center/antipode; the antipode is
           far outside every cutoff, and at the center d = 0 makes the
           direction irrelevant — any unit vector gives q = 0. *)
        let ct = if n > 0.0 then ((x *. fr.caxis) +. (y *. fr.saxis)) /. n else 1.0 in
        let st = if n > 0.0 then ((y *. fr.caxis) -. (x *. fr.saxis)) /. n else 0.0 in
        let along = d *. ct /. fr.half_length_km in
        let across = d *. st /. fr.half_width_km in
        let q = (along *. along) +. (across *. across) in
        acc := !acc +. (fr.peak_m *. exp (-.q))
      end
    done;
    !acc
  end

let ruggedness t p = t.base_amp_m +. mountain_amp t p

let elevation_m t p =
  let lat = Coord.lat p and lon = Coord.lon p in
  (* Feature scale: frequency 2/deg ~ 50 km rolling features. *)
  let base = Noise.fbm ~seed:t.seed ~octaves:5 ~lacunarity:2.1 ~gain:0.5 (lon *. 2.0) (lat *. 2.0) in
  let mountains =
    let amp = mountain_amp t p in
    if amp <= 1.0 then 0.0
    else amp *. Noise.ridged ~seed:(t.seed + 1000) ~octaves:4 (lon *. 3.0) (lat *. 3.0)
  in
  let ramp =
    if t.west_ramp then begin
      (* Great-Plains ramp: ~200 m near lon -95 rising to ~1600 m near -105. *)
      let x = (-95.0 -. lon) /. 10.0 in
      let x = Float.max 0.0 (Float.min 1.6 x) in
      x *. 900.0
    end
    else 0.0
  in
  Float.max 0.0 (t.base_floor_m +. ramp +. (t.base_amp_m *. base) +. mountains)

let clutter_m t p =
  let lat = Coord.lat p and lon = Coord.lon p in
  (* Canopy/building height: noisy 0-30 m field at ~20 km scale. *)
  let v = Noise.fbm ~seed:(t.seed + 2000) ~octaves:3 ~lacunarity:2.0 ~gain:0.5 (lon *. 5.0) (lat *. 5.0) in
  let h = 14.0 +. (14.0 *. v) in
  Float.max 0.0 h

let surface_m t p = elevation_m t p +. clutter_m t p
