open Cisp_orbit

let coord = Cisp_geo.Coord.make
let nyc = coord ~lat:40.71 ~lon:(-74.01)
let la = coord ~lat:34.05 ~lon:(-118.24)

let test_period () =
  (* 550 km circular orbit: ~95.6 minutes. *)
  let t = Constellation.orbital_period Constellation.starlink_like in
  Alcotest.(check bool) (Printf.sprintf "period %.0f s ~ 5740" t) true
    (t > 5_600.0 && t < 5_900.0);
  (* higher orbits are slower *)
  Alcotest.(check bool) "1150 km slower" true
    (Constellation.orbital_period Constellation.sparse_shell > t)

let test_positions_on_shell () =
  let shell = Constellation.starlink_like in
  let sats = Constellation.positions shell ~t_s:137.0 in
  Alcotest.(check int) "count" (shell.Constellation.n_planes * shell.Constellation.sats_per_plane)
    (Array.length sats);
  let r_expect = 6371.0 +. shell.Constellation.altitude_km in
  Array.iter
    (fun s ->
      let x, y, z = s.Constellation.position_ecef in
      let r = sqrt ((x *. x) +. (y *. y) +. (z *. z)) in
      Alcotest.(check (float 0.5)) "on the shell" r_expect r)
    sats

let test_positions_move () =
  let shell = Constellation.sparse_shell in
  let a = (Constellation.positions shell ~t_s:0.0).(0) in
  let b = (Constellation.positions shell ~t_s:60.0).(0) in
  let d =
    let x1, y1, z1 = a.Constellation.position_ecef in
    let x2, y2, z2 = b.Constellation.position_ecef in
    sqrt (((x1 -. x2) ** 2.0) +. ((y1 -. y2) ** 2.0) +. ((z1 -. z2) ** 2.0))
  in
  (* ~7.3 km/s orbital velocity: ~440 km in a minute. *)
  Alcotest.(check bool) (Printf.sprintf "moved %.0f km in 60s" d) true (d > 300.0 && d < 600.0)

let test_dense_path_exists () =
  match Constellation.path_latency_ms Constellation.starlink_like ~t_s:0.0 nyc la with
  | None -> Alcotest.fail "dense shell should connect NYC-LA"
  | Some ms ->
    let geo = Cisp_geo.Geodesy.c_latency_ms nyc la in
    let stretch = ms /. geo in
    Alcotest.(check bool)
      (Printf.sprintf "stretch %.2f in (1, 4)" stretch)
      true
      (stretch > 1.0 && stretch < 4.0)

let test_density_claim () =
  (* The paper's claim: matching terrestrial latency needs very high
     density.  The sparse shell must be worse in coverage or median. *)
  let dense = Constellation.pair_stretch_over_time ~samples:16 Constellation.starlink_like nyc la in
  let sparse = Constellation.pair_stretch_over_time ~samples:16 Constellation.sparse_shell nyc la in
  Alcotest.(check bool) "dense covers" true (dense.Constellation.coverage > 0.9);
  Alcotest.(check bool) "sparse degraded" true
    (sparse.Constellation.coverage < dense.Constellation.coverage
    || sparse.Constellation.stretch_p50 > dense.Constellation.stretch_p50);
  Alcotest.(check bool) "time variation exists" true
    (dense.Constellation.stretch_p95 >= dense.Constellation.stretch_p50)

let suites =
  [
    ( "orbit.constellation",
      [
        Alcotest.test_case "orbital period" `Quick test_period;
        Alcotest.test_case "positions on shell" `Quick test_positions_on_shell;
        Alcotest.test_case "positions move" `Quick test_positions_move;
        Alcotest.test_case "dense path" `Quick test_dense_path_exists;
        Alcotest.test_case "density claim" `Quick test_density_claim;
      ] );
  ]
