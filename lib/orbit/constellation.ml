module Coord = Cisp_geo.Coord
module Geodesy = Cisp_geo.Geodesy
module Graph = Cisp_graph.Graph
module Dijkstra = Cisp_graph.Dijkstra

type shell = {
  name : string;
  altitude_km : float;
  inclination_deg : float;
  n_planes : int;
  sats_per_plane : int;
  phase_factor : int;
}

let starlink_like =
  {
    name = "dense 72x22 @550km";
    altitude_km = 550.0;
    inclination_deg = 53.0;
    n_planes = 72;
    sats_per_plane = 22;
    phase_factor = 11;
  }

let sparse_shell =
  {
    name = "sparse 24x12 @1150km";
    altitude_km = 1150.0;
    inclination_deg = 53.0;
    n_planes = 24;
    sats_per_plane = 12;
    phase_factor = 6;
  }

let earth_radius = Cisp_util.Units.earth_radius_km
let mu = 398_600.4418 (* km^3 / s^2 *)
let earth_rotation = 7.2921159e-5 (* rad / s *)

type sat_position = {
  sat_id : int;
  position_ecef : float * float * float;
  subpoint : Coord.t;
}

let orbital_period shell =
  let r = earth_radius +. shell.altitude_km in
  2.0 *. Float.pi *. sqrt (r *. r *. r /. mu)

let positions shell ~t_s =
  let r = earth_radius +. shell.altitude_km in
  let inc = Cisp_util.Units.deg_to_rad shell.inclination_deg in
  let n_mean = 2.0 *. Float.pi /. orbital_period shell in
  let p_total = shell.n_planes and s_total = shell.sats_per_plane in
  let rot = -.earth_rotation *. t_s in
  let cos_rot = cos rot and sin_rot = sin rot in
  Array.init (p_total * s_total) (fun sat_id ->
      let p = sat_id / s_total and s = sat_id mod s_total in
      let raan = 2.0 *. Float.pi *. float_of_int p /. float_of_int p_total in
      let u0 =
        (2.0 *. Float.pi *. float_of_int s /. float_of_int s_total)
        +. (2.0 *. Float.pi *. float_of_int (shell.phase_factor * p)
            /. float_of_int (p_total * s_total))
      in
      let u = u0 +. (n_mean *. t_s) in
      (* ECI position of a circular inclined orbit. *)
      let xi = r *. ((cos raan *. cos u) -. (sin raan *. sin u *. cos inc)) in
      let yi = r *. ((sin raan *. cos u) +. (cos raan *. sin u *. cos inc)) in
      let zi = r *. sin u *. sin inc in
      (* Earth-fixed frame: rotate by -omega_e * t around z. *)
      let x = (xi *. cos_rot) -. (yi *. sin_rot) in
      let y = (xi *. sin_rot) +. (yi *. cos_rot) in
      let z = zi in
      let lat = Cisp_util.Units.rad_to_deg (asin (z /. r)) in
      let lon = Cisp_util.Units.rad_to_deg (atan2 y x) in
      { sat_id; position_ecef = (x, y, z); subpoint = Coord.make ~lat ~lon })

let ecef_of_ground p =
  let lat = Cisp_util.Units.deg_to_rad (Coord.lat p) in
  let lon = Cisp_util.Units.deg_to_rad (Coord.lon p) in
  (earth_radius *. cos lat *. cos lon, earth_radius *. cos lat *. sin lon, earth_radius *. sin lat)

let dist3 (x1, y1, z1) (x2, y2, z2) =
  let dx = x1 -. x2 and dy = y1 -. y2 and dz = z1 -. z2 in
  sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz))

let min_elevation_deg = 25.0

let elevation_deg sat ground_ecef =
  let gx, gy, gz = ground_ecef in
  let sx, sy, sz = sat.position_ecef in
  let dx = sx -. gx and dy = sy -. gy and dz = sz -. gz in
  let d = sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) in
  let g = sqrt ((gx *. gx) +. (gy *. gy) +. (gz *. gz)) in
  (* sin(elevation) = (d_vec . g_hat) / |d| *)
  let dot = ((dx *. gx) +. (dy *. gy) +. (dz *. gz)) /. g in
  Cisp_util.Units.rad_to_deg (asin (Float.max (-1.0) (Float.min 1.0 (dot /. d))))

(* +grid ISLs: fore/aft in plane, left/right across adjacent planes. *)
let isl_neighbors shell sat_id =
  let s_total = shell.sats_per_plane and p_total = shell.n_planes in
  let p = sat_id / s_total and s = sat_id mod s_total in
  [
    (p * s_total) + ((s + 1) mod s_total);
    (p * s_total) + ((s + s_total - 1) mod s_total);
    (((p + 1) mod p_total) * s_total) + s;
    (((p + p_total - 1) mod p_total) * s_total) + s;
  ]

let path_latency_ms shell ~t_s a b =
  let sats = positions shell ~t_s in
  let n_sats = Array.length sats in
  let src = n_sats and dst = n_sats + 1 in
  (* At most four ISLs per satellite and one ground link from each end
     to each satellite. *)
  let cap = 6 * n_sats in
  let u = Array.make cap 0 and v = Array.make cap 0 and w = Array.make cap 0.0 in
  let m = ref 0 in
  let add x y d =
    u.(!m) <- x;
    v.(!m) <- y;
    w.(!m) <- d;
    incr m
  in
  Array.iter
    (fun sat ->
      List.iter
        (fun nb ->
          if nb > sat.sat_id then add sat.sat_id nb (dist3 sat.position_ecef sats.(nb).position_ecef))
        (isl_neighbors shell sat.sat_id))
    sats;
  let attach node ground =
    let ge = ecef_of_ground ground in
    let any = ref false in
    Array.iter
      (fun sat ->
        if elevation_deg sat ge >= min_elevation_deg then begin
          add node sat.sat_id (dist3 sat.position_ecef ge);
          any := true
        end)
      sats;
    !any
  in
  if attach src a && attach dst b then begin
    let sub x = Array.sub x 0 !m in
    let g = Graph.of_edges ~n:(n_sats + 2) (sub u) (sub v) (sub w) in
    Option.map (fun (d, _) -> Cisp_util.Units.ms_of_km_at_c d) (Dijkstra.shortest_path g ~src ~dst)
  end
  else None

type pair_stats = {
  samples : int;
  coverage : float;
  stretch_p50 : float;
  stretch_p95 : float;
  stretch_max : float;
}

let pair_stretch_over_time ?(samples = 96) shell a b =
  let period = orbital_period shell in
  let geo_ms = Geodesy.c_latency_ms a b in
  let stretches = ref [] in
  let hits = ref 0 in
  for k = 0 to samples - 1 do
    let t_s = period *. float_of_int k /. float_of_int samples in
    match path_latency_ms shell ~t_s a b with
    | Some ms when geo_ms > 0.0 ->
      incr hits;
      stretches := (ms /. geo_ms) :: !stretches
    | Some _ | None -> ()
  done;
  let arr = Array.of_list !stretches in
  if Array.length arr = 0 then
    { samples; coverage = 0.0; stretch_p50 = nan; stretch_p95 = nan; stretch_max = nan }
  else begin
    let sorted = Array.copy arr in
    Array.sort Float.compare sorted;
    {
      samples;
      coverage = float_of_int !hits /. float_of_int samples;
      stretch_p50 = Cisp_util.Stats.percentile arr 50.0;
      stretch_p95 = Cisp_util.Stats.percentile arr 95.0;
      stretch_max = sorted.(Array.length sorted - 1);
    }
  end
