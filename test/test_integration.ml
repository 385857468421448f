(* End-to-end integration: the full real pipeline — synthetic terrain,
   tower registry, culling, hop feasibility, fiber network, design,
   capacity, cost, weather — on a small custom region. *)

open Cisp_design

let sites =
  [
    Cisp_data.City.make "Metro" ~lat:40.5 ~lon:(-98.0) ~population:2_000_000;
    Cisp_data.City.make "Port" ~lat:41.6 ~lon:(-94.5) ~population:900_000;
    Cisp_data.City.make "Forge" ~lat:38.8 ~lon:(-95.0) ~population:600_000;
    Cisp_data.City.make "Mills" ~lat:39.9 ~lon:(-91.8) ~population:400_000;
  ]

let config =
  { Scenario.default_config with Scenario.region = Scenario.Custom ("integration", sites) }

(* Lazy so the pipeline is built inside the first test that needs it,
   not at module init of every run of the test binary. *)
let artifacts = lazy (Scenario.artifacts ~config ())
let inputs = lazy (Scenario.population_inputs (Lazy.force artifacts))
let budget = 120
let topo = lazy (Scenario.design (Lazy.force inputs) ~budget)

let test_artifacts_shape () =
  let artifacts = Lazy.force artifacts in
  Alcotest.(check int) "four sites" 4 (Array.length artifacts.Scenario.sites);
  Alcotest.(check bool) "towers generated" true (List.length artifacts.Scenario.towers > 100);
  let hops = artifacts.Scenario.hops in
  ignore (Cisp_towers.Hops.force_graph hops);
  Alcotest.(check bool) "hops found" true (hops.Cisp_towers.Hops.feasible_hops > 100)

let test_inputs_consistent () =
  let inputs = Lazy.force inputs in
  Alcotest.(check bool) "inputs valid" true (Inputs.validate inputs = Ok ());
  (* MW links exist between all pairs at this scale and are shorter
     than fiber but longer than geodesic. *)
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      let g = inputs.Inputs.geodesic_km.(i).(j) in
      let m = inputs.Inputs.mw_km.(i).(j) in
      let f = inputs.Inputs.fiber_km.(i).(j) in
      Alcotest.(check bool) "mw >= geodesic" true (m >= g);
      Alcotest.(check bool) "mw < fiber" true (m < f);
      Alcotest.(check bool) "fiber inflated" true (f > 1.5 *. g)
    done
  done

let test_design_quality () =
  let inputs = Lazy.force inputs and topo = Lazy.force topo in
  let stretch = Topology.stretch_of topo in
  Alcotest.(check bool) "within budget" true (topo.Topology.cost <= budget);
  Alcotest.(check bool)
    (Printf.sprintf "stretch %.3f below 1.2" stretch)
    true (stretch < 1.2);
  Alcotest.(check bool) "beats fiber soundly" true
    (stretch < Topology.mean_stretch inputs (Topology.fiber_baseline inputs) /. 1.4)

let test_capacity_and_cost () =
  let artifacts = Lazy.force artifacts and inputs = Lazy.force inputs in
  let topo = Lazy.force topo in
  let spare = Capacity.spare_from_registry artifacts.Scenario.hops in
  let plan = Capacity.plan ~spare_series_at_hop:spare inputs topo ~aggregate_gbps:50.0 in
  Alcotest.(check bool) "positive hops" true (plan.Capacity.hops_total > 0);
  let cpg = Capacity.cost_per_gb Cost.default plan ~aggregate_gbps:50.0 in
  Alcotest.(check bool) (Printf.sprintf "cost/GB %.2f sane" cpg) true (cpg > 0.01 && cpg < 20.0)

let test_weather_reroute () =
  let artifacts = Lazy.force artifacts and inputs = Lazy.force inputs in
  let topo = Lazy.force topo in
  let r =
    Cisp_weather.Year.run ~intervals:12 ~climate:Cisp_weather.Rainfield.us_climate
      ~hops:artifacts.Scenario.hops inputs topo
  in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "weather never beats fair weather" true
        (p.Cisp_weather.Year.worst >= p.Cisp_weather.Year.best -. 1e-9);
      Alcotest.(check bool) "fiber is the ceiling" true
        (p.Cisp_weather.Year.worst <= p.Cisp_weather.Year.fiber +. 1e-9))
    r.Cisp_weather.Year.per_pair

let test_packet_sim_on_designed_network () =
  let artifacts = Lazy.force artifacts and inputs = Lazy.force inputs in
  let topo = Lazy.force topo in
  let spare = Capacity.spare_from_registry artifacts.Scenario.hops in
  let plan = Capacity.plan ~spare_series_at_hop:spare inputs topo ~aggregate_gbps:50.0 in
  let eng = Cisp_sim.Engine.create () in
  let mw_gbps = Cisp_sim.Builder.provisioned_mw_gbps plan in
  let net = Cisp_sim.Builder.build eng inputs topo ~mw_gbps in
  let model =
    { Cisp_sim.Routing.inputs; topology = topo; mw_gbps;
      fiber_gbps = Cisp_sim.Builder.default_config.Cisp_sim.Builder.fiber_gbps }
  in
  let demands = Cisp_traffic.Matrix.scale_to_gbps inputs.Inputs.traffic ~aggregate_gbps:25.0 in
  let paths = Cisp_sim.Routing.paths model Cisp_sim.Routing.Shortest_path ~demands_gbps:demands in
  Cisp_sim.Udp.poisson_commodities net ~paths ~demands_gbps:demands ~packet_bytes:500
    ~start:0.0 ~stop:0.01;
  Cisp_sim.Engine.run eng ~until:0.2;
  (* At half load the designed network is loss-free and delay tracks
     propagation. *)
  Alcotest.(check (float 1e-6)) "no loss at 50% load" 0.0 (Cisp_sim.Net.loss_rate net);
  let delay = Cisp_sim.Net.mean_delay_ms net in
  Alcotest.(check bool) (Printf.sprintf "delay %.2f ms plausible" delay) true
    (delay > 0.3 && delay < 5.0)

let test_refinement_on_designed_link () =
  let artifacts = Lazy.force artifacts in
  match (Lazy.force topo).Topology.built with
  | [] -> Alcotest.fail "expected links"
  | (i, j) :: _ ->
    let s = Cisp_towers.Refine.create ~hops:artifacts.Scenario.hops ~src:i ~dst:j in
    let stats = Cisp_towers.Refine.stats ~samples:30 s in
    Alcotest.(check bool) "viable link" true (stats.Cisp_towers.Refine.viability > 0.3)

let suites =
  [
    ( "integration.pipeline",
      [
        Alcotest.test_case "artifacts" `Slow test_artifacts_shape;
        Alcotest.test_case "inputs" `Slow test_inputs_consistent;
        Alcotest.test_case "design quality" `Slow test_design_quality;
        Alcotest.test_case "capacity and cost" `Slow test_capacity_and_cost;
        Alcotest.test_case "weather reroute" `Slow test_weather_reroute;
        Alcotest.test_case "packet sim" `Slow test_packet_sim_on_designed_network;
        Alcotest.test_case "refinement" `Slow test_refinement_on_designed_link;
      ] );
  ]
