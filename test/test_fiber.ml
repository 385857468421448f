open Cisp_fiber

let sites =
  [
    Cisp_data.City.make "A" ~lat:40.0 ~lon:(-100.0) ~population:500_000;
    Cisp_data.City.make "B" ~lat:41.0 ~lon:(-96.0) ~population:400_000;
    Cisp_data.City.make "C" ~lat:38.5 ~lon:(-97.5) ~population:300_000;
    Cisp_data.City.make "D" ~lat:42.5 ~lon:(-93.0) ~population:200_000;
    Cisp_data.City.make "E" ~lat:37.0 ~lon:(-94.0) ~population:100_000;
  ]

let net = Conduit.build ~sites ()

let test_connected () =
  let n = List.length sites in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        Alcotest.(check bool) "finite route" true (Conduit.route_km net i j < infinity)
    done
  done

let test_routes_exceed_geodesic () =
  let arr = Array.of_list sites in
  for i = 0 to 4 do
    for j = i + 1 to 4 do
      let geo = Cisp_geo.Geodesy.distance_km arr.(i).Cisp_data.City.coord arr.(j).Cisp_data.City.coord in
      Alcotest.(check bool) "route >= geodesic" true (Conduit.route_km net i j >= geo *. 0.999)
    done
  done

let test_latency_factor () =
  Alcotest.(check (float 1e-9)) "latency = 1.5x route"
    (Conduit.route_km net 0 1 *. 1.5)
    (Conduit.latency_km net 0 1)

let test_symmetric () =
  Alcotest.(check (float 1e-6)) "symmetric" (Conduit.route_km net 0 3) (Conduit.route_km net 3 0)

let test_matrix_agrees () =
  let m = Conduit.latency_matrix net in
  Alcotest.(check (float 1e-9)) "matrix entry" (Conduit.latency_km net 1 2) m.(1).(2);
  Alcotest.(check (float 1e-9)) "diagonal" 0.0 m.(0).(0)

let test_inflation_band () =
  (* The calibration target: latency inflation ~1.9x like InterTubes. *)
  let centers = Cisp_data.Sites.us_population_centers () in
  let us = Conduit.build ~sites:centers () in
  let infl = Conduit.mean_latency_inflation us in
  Alcotest.(check bool)
    (Printf.sprintf "US inflation %.2f in [1.75, 2.15]" infl)
    true
    (infl > 1.75 && infl < 2.15)

let test_assumed_mode () =
  let a = Conduit.build ~mode:(Conduit.Assumed 1.93) ~sites () in
  let arr = Array.of_list sites in
  let geo = Cisp_geo.Geodesy.distance_km arr.(0).Cisp_data.City.coord arr.(1).Cisp_data.City.coord in
  Alcotest.(check (float 0.01)) "assumed factor" (geo *. 1.93) (Conduit.latency_km a 0 1);
  Alcotest.(check (float 0.01)) "inflation is the factor" 1.93 (Conduit.mean_latency_inflation a)

let test_deterministic () =
  let again = Conduit.build ~sites () in
  Alcotest.(check (float 1e-9)) "same seed same routes" (Conduit.route_km net 0 4)
    (Conduit.route_km again 0 4)

let suites =
  [
    ( "fiber.conduit",
      [
        Alcotest.test_case "connected" `Quick test_connected;
        Alcotest.test_case "routes exceed geodesic" `Quick test_routes_exceed_geodesic;
        Alcotest.test_case "latency factor" `Quick test_latency_factor;
        Alcotest.test_case "symmetric" `Quick test_symmetric;
        Alcotest.test_case "matrix agrees" `Quick test_matrix_agrees;
        Alcotest.test_case "US inflation band" `Slow test_inflation_band;
        Alcotest.test_case "assumed mode" `Quick test_assumed_mode;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
      ] );
  ]
