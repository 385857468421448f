open Cisp_weather

let check_float eps = Alcotest.(check (float eps))
let coord = Cisp_geo.Coord.make

(* ---------- Rainfield ---------- *)

let test_field_deterministic () =
  let a = Rainfield.sample Rainfield.us_climate ~day:100 in
  let b = Rainfield.sample Rainfield.us_climate ~day:100 in
  let p = coord ~lat:35.0 ~lon:(-90.0) in
  check_float 0.0 "same day same rain" (Rainfield.rain_at a p) (Rainfield.rain_at b p)

let test_field_day_variation () =
  let p = coord ~lat:33.0 ~lon:(-88.0) in
  let rains = List.init 60 (fun d -> Rainfield.rain_at (Rainfield.sample Rainfield.us_climate ~day:d) p) in
  Alcotest.(check bool) "some dry, some wet" true
    (List.exists (fun r -> r < 0.1) rains && List.exists (fun r -> r > 1.0) rains)

let test_rain_nonnegative_and_decay () =
  let f = Rainfield.sample Rainfield.us_climate ~day:10 in
  let rng = Cisp_util.Rng.create 3 in
  for _ = 1 to 200 do
    let p =
      coord
        ~lat:(Cisp_util.Rng.uniform rng 25.0 49.0)
        ~lon:(Cisp_util.Rng.uniform rng (-125.0) (-66.0))
    in
    Alcotest.(check bool) "nonnegative" true (Rainfield.rain_at f p >= 0.0)
  done;
  (* Rain decays away from a storm center. *)
  match f.Rainfield.storms with
  | [] -> () (* possible on a calm day; nothing to check *)
  | s :: _ ->
    let near = Rainfield.rain_at { f with Rainfield.storms = [ s ] } s.Rainfield.center in
    let far_p =
      Cisp_geo.Geodesy.destination s.Rainfield.center ~bearing_deg:0.0
        ~distance_km:(s.Rainfield.radius_km *. 4.0)
    in
    let far = Rainfield.rain_at { f with Rainfield.storms = [ s ] } far_p in
    Alcotest.(check bool) "decays with distance" true (far < near)

let test_hurricane_intense () =
  let c = coord ~lat:40.0 ~lon:(-74.0) in
  let h = Rainfield.hurricane ~center:c in
  Alcotest.(check bool) "core rain heavy" true (Rainfield.rain_at h c > 80.0)

(* ---------- Failure ---------- *)

let test_hop_margin_band () =
  let m = Failure.hop_margin_db ~d_km:60.0 in
  Alcotest.(check bool) "within [10, 38]" true (m >= 10.0 && m <= 38.0);
  Alcotest.(check bool) "longer hops have less margin" true
    (Failure.hop_margin_db ~d_km:90.0 <= Failure.hop_margin_db ~d_km:40.0)

let test_hop_failure_threshold () =
  Alcotest.(check bool) "dry hop survives" false (Failure.hop_failed ~rain_mm_h:0.0 ~d_km:60.0);
  Alcotest.(check bool) "deluge kills hop" true (Failure.hop_failed ~rain_mm_h:200.0 ~d_km:60.0);
  (* Monotone in rain. *)
  let failed_at r = Failure.hop_failed ~rain_mm_h:r ~d_km:80.0 in
  let rec first_failure r = if r > 500.0 then r else if failed_at r then r else first_failure (r +. 5.0) in
  let threshold = first_failure 5.0 in
  Alcotest.(check bool) "threshold exists" true (threshold < 500.0);
  Alcotest.(check bool) "below threshold ok" false (failed_at (threshold -. 5.0))

let test_loss_probability_shape () =
  let p r = Failure.hop_loss_probability ~rain_mm_h:r ~d_km:60.0 () in
  Alcotest.(check bool) "floor when dry" true (p 0.0 < 0.005);
  Alcotest.(check bool) "saturates" true (p 300.0 > 0.95);
  Alcotest.(check bool) "monotone" true (p 10.0 <= p 50.0 && p 50.0 <= p 150.0)

(* ---------- Year sweep (synthetic inputs) ---------- *)

let year_fixture () =
  let sites =
    Array.init 5 (fun i ->
        let c =
          Cisp_geo.Geodesy.destination
            (coord ~lat:33.0 ~lon:(-88.0))
            ~bearing_deg:(float_of_int i *. 72.0) ~distance_km:300.0
        in
        Cisp_data.City.make (Printf.sprintf "W%d" i) ~lat:(Cisp_geo.Coord.lat c)
          ~lon:(Cisp_geo.Coord.lon c) ~population:((i + 1) * 200_000))
  in
  let inputs =
    Cisp_design.Inputs.synthetic ~sites ~mw_stretch:1.03 ~mw_cost_per_km:0.02
      ~fiber_stretch:1.9
      ~traffic:(Cisp_traffic.Matrix.population_product sites)
  in
  let topo = Cisp_design.Greedy.design inputs ~budget:60 in
  (inputs, topo)

(* A hops structure is needed for node positions and the tower list;
   reuse the towers fixture approach with a flat DEM.  Building it lists
   the candidate hops and tests none; every case shares one lazy build
   and only reads it. *)
let fixture =
  lazy
    (let inputs, topo = year_fixture () in
     let sites = Array.to_list inputs.Cisp_design.Inputs.sites in
     let dem = Cisp_terrain.Dem.create ~seed:5 Cisp_terrain.Dem.Flat in
     let towers = Cisp_towers.Culling.apply (Cisp_towers.Synth.generate ~dem ~sites ()) in
     let cache = Cisp_terrain.Dem_cache.create dem in
     (inputs, topo, Cisp_towers.Hops.build ~cache ~sites ~towers ()))

let test_year_bounds () =
  let inputs, topo, hops = Lazy.force fixture in
  let r = Year.run ~intervals:20 ~climate:Rainfield.us_climate ~hops inputs topo in
  Alcotest.(check int) "intervals" 20 r.Year.intervals;
  Array.iter
    (fun p ->
      Alcotest.(check bool) "best <= median" true (p.Year.best <= p.Year.median +. 1e-9);
      Alcotest.(check bool) "median <= p99" true (p.Year.median <= p.Year.p99 +. 1e-9);
      Alcotest.(check bool) "p99 <= worst" true (p.Year.p99 <= p.Year.worst +. 1e-9);
      Alcotest.(check bool) "worst <= fiber" true (p.Year.worst <= p.Year.fiber +. 1e-9);
      Alcotest.(check bool) "best >= 1" true (p.Year.best >= 1.0 -. 1e-9))
    r.Year.per_pair

let test_year_cdfs_shape () =
  let inputs, topo, hops = Lazy.force fixture in
  let r = Year.run ~intervals:10 ~climate:Rainfield.us_climate ~hops inputs topo in
  let cdfs = Year.stretch_cdfs r in
  Alcotest.(check int) "five curves" 5 (List.length cdfs);
  List.iter
    (fun (_, cdf) ->
      Alcotest.(check int) "one point per pair" (Array.length r.Year.per_pair) (Array.length cdf))
    cdfs

let test_year_validation () =
  let inputs, topo, hops = Lazy.force fixture in
  List.iter
    (fun intervals ->
      Alcotest.check_raises
        (Printf.sprintf "%d intervals rejected" intervals)
        (Invalid_argument "Year.run: intervals <= 0") (fun () ->
          ignore (Year.run ~intervals ~climate:Rainfield.us_climate ~hops inputs topo)))
    [ 0; -3 ];
  let no_traffic =
    { inputs with
      Cisp_design.Inputs.traffic = Array.map (Array.map (fun _ -> 0.0)) inputs.traffic }
  in
  let no_traffic_topo = Cisp_design.Topology.of_links no_traffic topo.Cisp_design.Topology.built in
  Alcotest.check_raises "no traffic rejected"
    (Invalid_argument "Year.run: no site pair with traffic") (fun () ->
      ignore
        (Year.run ~intervals:2 ~climate:Rainfield.us_climate ~hops no_traffic no_traffic_topo))

(* The outages read the topology's inputs while the pairs, baseline
   and metric read the argument: an equal-looking copy is refused. *)
let test_year_instance () =
  let inputs, topo, hops = Lazy.force fixture in
  let copy = { inputs with Cisp_design.Inputs.traffic = inputs.Cisp_design.Inputs.traffic } in
  Alcotest.check_raises "topology over other inputs rejected"
    (Invalid_argument "Year.run: topology built over other inputs") (fun () ->
      ignore (Year.run ~intervals:2 ~climate:Rainfield.us_climate ~hops copy topo))

(* ---------- HFT relay ---------- *)

let test_hft_shape () =
  let r = Hft.run ~minutes:2743 () in
  Alcotest.(check int) "minutes" 2743 (Array.length r.Hft.loss_series);
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f >> median %.3f (hurricane-driven)" r.Hft.mean_loss r.Hft.median_loss)
    true
    (r.Hft.mean_loss > 3.0 *. r.Hft.median_loss);
  Alcotest.(check bool) "median small" true (r.Hft.median_loss < 0.05);
  Alcotest.(check bool) "mean substantial" true (r.Hft.mean_loss > 0.05);
  Alcotest.(check int64) "mean loss bits" 4596216362469606880L (Int64.bits_of_float r.Hft.mean_loss);
  Alcotest.(check int64) "median loss bits" 4580698215616402848L (Int64.bits_of_float r.Hft.median_loss);
  Array.iter
    (fun l -> Alcotest.(check bool) "loss in [0,1]" true (l >= 0.0 && l <= 1.0))
    r.Hft.loss_series

(* ---------- zero-length hops (degenerate co-located endpoints) ---------- *)

let test_zero_hop_link_cannot_fail () =
  (* Both endpoints at the hurricane eye: without the zero-length
     guard the undefined midpoint would sample 100+ mm/h over a
     "hop" of no length and kill the link. *)
  let p = coord ~lat:40.0 ~lon:(-74.0) in
  let link =
    { Cisp_towers.Hops.src = 0; dst = 1; distance_km = 0.0; geodesic_km = 0.0;
      node_path = [ 0; 1 ]; tower_count = 0 }
  in
  let field = Rainfield.hurricane ~center:p in
  Alcotest.(check bool) "zero-length hop cannot fail" false
    (Failure.link_failed ~node_position:(fun _ -> p) field link)

let test_zero_hop_does_not_shadow_real_hops () =
  (* A real 80 km hop whose midpoint sits on the eye, followed by a
     degenerate zero-length hop: the guard must skip only the latter. *)
  let p = coord ~lat:40.0 ~lon:(-74.0) in
  let a = Cisp_geo.Geodesy.destination p ~bearing_deg:270.0 ~distance_km:40.0 in
  let b = Cisp_geo.Geodesy.destination p ~bearing_deg:90.0 ~distance_km:40.0 in
  let link =
    { Cisp_towers.Hops.src = 0; dst = 1; distance_km = 80.0; geodesic_km = 80.0;
      node_path = [ 0; 2; 1 ]; tower_count = 1 }
  in
  let node_position n = if n = 0 then a else b in
  let field = Rainfield.hurricane ~center:p in
  Alcotest.(check bool) "wet real hop still fails" true
    (Failure.link_failed ~node_position field link)

(* ---------- failure-scenario engine ---------- *)

let scenario_fixture () =
  let inputs, topo, hops = Lazy.force fixture in
  let model =
    { Cisp_sim.Routing.inputs; topology = topo; mw_gbps = (fun _ -> 10.0); fiber_gbps = 100.0 }
  in
  let demands =
    Cisp_traffic.Matrix.scale_to_gbps inputs.Cisp_design.Inputs.traffic ~aggregate_gbps:5.0
  in
  (hops, model, demands)

let test_scenarios_dry_full_availability () =
  let hops, model, demands = scenario_fixture () in
  let schemes = Scenarios.default_schemes ~k:2 in
  let r =
    Scenarios.run ~schemes ~hops ~model ~demands_gbps:demands
      (Scenarios.Uniform_rain { mm_h = 0.0 })
  in
  Alcotest.(check string) "name" "uniform-rain" r.Scenarios.name;
  Alcotest.(check int) "single interval" 1 r.Scenarios.intervals;
  check_float 1e-12 "dry: nothing fails" 0.0 r.Scenarios.mean_failed_links;
  Alcotest.(check int) "one summary per scheme" 3 (List.length r.Scenarios.schemes);
  List.iter
    (fun s ->
      check_float 1e-12 (s.Scenarios.scheme ^ " fully available") 1.0 s.Scenarios.availability;
      Alcotest.(check bool) (s.Scenarios.scheme ^ " stretch >= 1") true
        (s.Scenarios.mean_stretch >= 1.0 -. 1e-9);
      Alcotest.(check bool) (s.Scenarios.scheme ^ " p99 >= mean order sane") true
        (s.Scenarios.worst_stretch >= s.Scenarios.p99_stretch -. 1e-9))
    r.Scenarios.schemes

let test_scenarios_deluge_recompute_rides_fiber () =
  let hops, model, demands = scenario_fixture () in
  let schemes = Scenarios.default_schemes ~k:3 in
  let dry =
    Scenarios.run ~schemes ~hops ~model ~demands_gbps:demands
      (Scenarios.Uniform_rain { mm_h = 0.0 })
  in
  let wet =
    Scenarios.run ~schemes ~hops ~model ~demands_gbps:demands
      (Scenarios.Uniform_rain { mm_h = 400.0 })
  in
  Alcotest.(check bool) "deluge kills links" true (wet.Scenarios.mean_failed_links > 0.0);
  let by_name r = List.map (fun s -> (s.Scenarios.scheme, s)) r.Scenarios.schemes in
  let recompute = List.assoc "shortest-recompute" (by_name wet) in
  let failover = List.assoc "failover-k3" (by_name wet) in
  (* Global recompute falls back to fiber: never unavailable, but the
     mean stretch degrades versus fair weather. *)
  check_float 1e-12 "recompute availability" 1.0 recompute.Scenarios.availability;
  let dry_recompute = List.assoc "shortest-recompute" (by_name dry) in
  Alcotest.(check bool) "recompute stretch degrades in the deluge" true
    (recompute.Scenarios.mean_stretch >= dry_recompute.Scenarios.mean_stretch -. 1e-9);
  (* Precomputed failover can do no better than global recompute. *)
  Alcotest.(check bool) "failover availability <= recompute" true
    (failover.Scenarios.availability <= recompute.Scenarios.availability +. 1e-12)

let test_scenarios_correlated_and_csv () =
  let hops, model, demands = scenario_fixture () in
  let schemes = Scenarios.default_schemes ~k:2 in
  let run spec = Scenarios.run ~schemes ~hops ~model ~demands_gbps:demands spec in
  let towers =
    run (Scenarios.Correlated_towers { blobs = 2; radius_km = 150.0; intervals = 5 })
  in
  let hurricane =
    run
      (Scenarios.Hurricane
         { center = model.Cisp_sim.Routing.inputs.Cisp_design.Inputs.sites.(0).Cisp_data.City.coord;
           track_bearing_deg = 90.0; step_km = 80.0; intervals = 5 })
  in
  Alcotest.(check int) "intervals" 5 towers.Scenarios.intervals;
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s availability in [0,1]" r.Scenarios.name s.Scenarios.scheme)
            true
            (s.Scenarios.availability >= 0.0 && s.Scenarios.availability <= 1.0))
        r.Scenarios.schemes)
    [ towers; hurricane ];
  let csv = Scenarios.frontier_csv [ towers; hurricane ] in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row per (scenario, scheme)" 7 (List.length lines);
  Alcotest.(check string) "header"
    "scenario,scheme,availability,mean_stretch,p99_stretch,worst_stretch,mean_failed_links"
    (List.hd lines)

let test_scenarios_validation () =
  let hops, model, demands = scenario_fixture () in
  let schemes = Scenarios.default_schemes ~k:2 in
  Alcotest.check_raises "zero intervals rejected"
    (Invalid_argument "Scenarios.run: intervals <= 0") (fun () ->
      ignore
        (Scenarios.run ~schemes ~hops ~model ~demands_gbps:demands
           (Scenarios.Rain_replay { climate = Rainfield.us_climate; intervals = 0 })));
  Alcotest.check_raises "empty scheme list rejected"
    (Invalid_argument "Scenarios.run: no schemes") (fun () ->
      ignore
        (Scenarios.run ~schemes:[] ~hops ~model ~demands_gbps:demands
           (Scenarios.Uniform_rain { mm_h = 0.0 })));
  let no_demand = Array.map (Array.map (fun _ -> 0.0)) demands in
  Alcotest.check_raises "no commodities rejected"
    (Invalid_argument "Scenarios.run: no commodities") (fun () ->
      ignore
        (Scenarios.run ~schemes ~hops ~model ~demands_gbps:no_demand
           (Scenarios.Uniform_rain { mm_h = 0.0 })))

let suites =
  [
    ( "weather.rainfield",
      [
        Alcotest.test_case "deterministic" `Quick test_field_deterministic;
        Alcotest.test_case "day variation" `Quick test_field_day_variation;
        Alcotest.test_case "nonnegative and decay" `Quick test_rain_nonnegative_and_decay;
        Alcotest.test_case "hurricane" `Quick test_hurricane_intense;
      ] );
    ( "weather.failure",
      [
        Alcotest.test_case "margin band" `Quick test_hop_margin_band;
        Alcotest.test_case "failure threshold" `Quick test_hop_failure_threshold;
        Alcotest.test_case "loss probability" `Quick test_loss_probability_shape;
        Alcotest.test_case "zero-length hop cannot fail" `Quick test_zero_hop_link_cannot_fail;
        Alcotest.test_case "zero-length hop does not shadow" `Quick
          test_zero_hop_does_not_shadow_real_hops;
      ] );
    ( "weather.scenarios",
      [
        Alcotest.test_case "dry run fully available" `Slow test_scenarios_dry_full_availability;
        Alcotest.test_case "deluge rides fiber" `Slow test_scenarios_deluge_recompute_rides_fiber;
        Alcotest.test_case "correlated towers and csv" `Slow test_scenarios_correlated_and_csv;
        Alcotest.test_case "validation" `Quick test_scenarios_validation;
      ] );
    ( "weather.year",
      [
        Alcotest.test_case "bounds" `Slow test_year_bounds;
        Alcotest.test_case "cdf shape" `Slow test_year_cdfs_shape;
        Alcotest.test_case "validation" `Quick test_year_validation;
        Alcotest.test_case "instance mismatch" `Quick test_year_instance;
      ] );
    ("weather.hft", [ Alcotest.test_case "hurricane-driven loss" `Quick test_hft_shape ]);
  ]
