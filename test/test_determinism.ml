(* Parallel determinism regression (the pool's core contract): the
   whole design pipeline — MW link inputs, greedy + local search, export,
   weather — must be bit-identical at every pool width.  Runs the
   small Europe scenario at widths 1, 2, 4 and 8 and compares outputs
   structurally (floats bitwise, via polymorphic equality: no NaNs in
   these pipelines). *)

open Cisp_design
module Pool = Cisp_util.Pool
module Hops = Cisp_towers.Hops

let config = { Scenario.europe_config with Scenario.n_sites = Some 8 }
let budget = 120

(* Lazy so the (heavy, memoized) artifact build is paid inside the
   first test run, not at module init of every `dune runtest`
   filter. *)
let artifacts = lazy (Scenario.artifacts ~config ())

let bits f = Int64.bits_of_float f

let run_design width =
  Pool.with_default_jobs width (fun () ->
      let a = Lazy.force artifacts in
      (* Recomputed per call: exercises [Hops.all_links], the search
         that builds [Inputs.mw_km]. *)
      let inputs = Scenario.population_inputs a in
      let topo = Scenario.design inputs ~budget in
      let spare = Capacity.spare_from_registry a.Scenario.hops in
      let plan = Capacity.plan ~spare_series_at_hop:spare inputs topo ~aggregate_gbps:100.0 in
      (topo, Topology.stretch_of topo, Export.topology_geojson inputs topo, plan))

(* MD5 over everything [run_design] produces, floats by their bits. *)
let design_fingerprint (topo, stretch, geojson, (plan : Capacity.plan)) =
  let b = Buffer.create 65536 in
  List.iter (fun (i, j) -> Printf.bprintf b "built %d %d\n" i j) topo.Topology.built;
  Printf.bprintf b "cost %d\nstretch %Ld\n%s\n" topo.Topology.cost (bits stretch) geojson;
  List.iter
    (fun (l : Capacity.link_plan) ->
      let i, j = l.Capacity.link in
      Printf.bprintf b "plan %d %d %Ld %d %d\n" i j (bits l.Capacity.load_gbps)
        l.Capacity.series l.Capacity.hops)
    plan.Capacity.links;
  List.iter (fun (c, h) -> Printf.bprintf b "class %d %d\n" c h) plan.Capacity.hop_classes;
  Printf.bprintf b "mw %Ld hops %d radios %d new %d rented %d\n"
    (bits plan.Capacity.mw_carried_fraction)
    plan.Capacity.hops_total plan.Capacity.radios plan.Capacity.new_towers
    plan.Capacity.rented_towers;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Checked-in fingerprint of the 8-site Europe fixture's design at
   jobs=1: a change anywhere between the hop graph and the capacity
   plan that moves one bit shows up here. *)
let golden_design_fingerprint = "e17a4f1913d10bcfa35f0fc547e33fbe"

let test_design_width_invariant () =
  let ((t1, s1, g1, _) as r1) = run_design 1 in
  let fp1 = design_fingerprint r1 in
  Alcotest.(check string) "golden design fingerprint (jobs=1)" golden_design_fingerprint fp1;
  List.iter
    (fun width ->
      let ((tw, sw, gw, _) as rw) = run_design width in
      let label fmt = Printf.sprintf fmt width in
      Alcotest.(check (list (pair int int)))
        (label "built links, jobs=1 vs %d")
        t1.Topology.built tw.Topology.built;
      Alcotest.(check int) (label "tower cost, jobs=1 vs %d") t1.Topology.cost tw.Topology.cost;
      Alcotest.(check int64) (label "stretch bitwise, jobs=1 vs %d") (bits s1) (bits sw);
      Alcotest.(check string) (label "exported GeoJSON, jobs=1 vs %d") g1 gw;
      Alcotest.(check string) (label "design fingerprint, jobs=1 vs %d") fp1
        (design_fingerprint rw))
    [ 2; 4; 8 ]

(* Packet run on the designed network: the 100 Gbps plan's links,
   shortest-path routes and Poisson UDP at 70% of the aggregate for
   2 ms, drained for 200 ms. *)
let run_packets width =
  let topo, _, _, plan = run_design width in
  Pool.with_default_jobs width (fun () ->
      let module Sim = Cisp_sim in
      let inputs = topo.Topology.inputs in
      let eng = Sim.Engine.create () in
      let mw_gbps = Sim.Builder.provisioned_mw_gbps plan in
      let net = Sim.Builder.build eng inputs topo ~mw_gbps in
      let model =
        { Sim.Routing.inputs; topology = topo; mw_gbps;
          fiber_gbps = Sim.Builder.default_config.Sim.Builder.fiber_gbps }
      in
      let demands =
        Cisp_traffic.Matrix.scale_to_gbps inputs.Inputs.traffic ~aggregate_gbps:70.0
      in
      let paths = Sim.Routing.paths model Sim.Routing.Shortest_path ~demands_gbps:demands in
      Sim.Udp.poisson_commodities net ~paths ~demands_gbps:demands ~packet_bytes:500
        ~start:0.0 ~stop:0.002;
      Sim.Engine.run eng ~until:0.202;
      (net, Inputs.n_sites inputs, Sim.Engine.events_processed eng))

(* MD5 over a packet run: per-flow totals in flow-id order, per-link
   counters in (src, dst) order, the event count and the mean delay,
   floats by their bits. *)
let packet_fingerprint (net, n, events) =
  let module Net = Cisp_sim.Net in
  let b = Buffer.create 65536 in
  List.iter
    (fun (id, (f : Net.flow_stats)) ->
      Printf.bprintf b "flow %d %d %d %d %Ld %Ld\n" id f.Net.sent f.Net.delivered f.Net.dropped
        (bits f.Net.delay_sum_s) (bits f.Net.delay_max_s))
    (List.sort (fun (a, _) (c, _) -> Int.compare a c) (Net.all_flow_stats net));
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      match Net.link_stats net ~src ~dst with
      | Some (l : Net.link_stats) ->
        Printf.bprintf b "link %d %d %d %d %d %Ld\n" src dst l.Net.bytes_sent l.Net.drops
          l.Net.queue_peak_bytes (bits l.Net.busy_s)
      | None -> ()
    done
  done;
  Printf.bprintf b "events %d delay %Ld\n" events (bits (Net.mean_delay_ms net));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Checked-in fingerprint of the packet run at jobs=1: pins
   [Builder.build] and [Routing.paths] on the designed network. *)
let golden_packet_fingerprint = "93ecc1a9d001158f140dae27cb901447"

let test_packet_run_golden () =
  let ((net1, _, _) as r1) = run_packets 1 in
  Alcotest.(check string) "golden packet fingerprint (jobs=1)" golden_packet_fingerprint
    (packet_fingerprint r1);
  (* Fig 5: loss-free at 70% of the planned aggregate. *)
  Alcotest.(check (float 0.0)) "no loss at 70% load" 0.0 (Cisp_sim.Net.loss_rate net1);
  List.iter
    (fun w ->
      Alcotest.(check string) (Printf.sprintf "packet fingerprint, jobs=1 vs %d" w)
        (packet_fingerprint r1) (packet_fingerprint (run_packets w)))
    [ 2; 4; 8 ]

let test_apsp_width_invariant () =
  let a = Lazy.force artifacts in
  let links w = Pool.with_default_jobs w (fun () -> Hops.all_links a.Scenario.hops) in
  Alcotest.(check bool) "MW link matrix identical at jobs=1 vs 4" true (links 1 = links 4)

let test_metric_width_invariant () =
  let a = Lazy.force artifacts in
  let inputs = Scenario.population_inputs a in
  let base w = Pool.with_default_jobs w (fun () -> Topology.fiber_baseline inputs) in
  Alcotest.(check bool) "fiber metric closure identical at jobs=1 vs 4" true (base 1 = base 4);
  let topo = Pool.with_default_jobs 1 (fun () -> Scenario.design inputs ~budget) in
  let dist w = Pool.with_default_jobs w (fun () -> Topology.distances topo) in
  Alcotest.(check bool) "topology metric identical at jobs=1 vs 4" true (dist 1 = dist 4)

(* MD5 over a weather year: the interval count and mean failed links,
   then every pair's summary in order, floats by their bits. *)
let year_fingerprint (r : Cisp_weather.Year.result) =
  let module Year = Cisp_weather.Year in
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %Ld\n" r.Year.intervals (bits r.Year.mean_failed_links);
  Array.iter
    (fun (p : Year.pair_summary) ->
      Printf.bprintf b "%Ld %Ld %Ld %Ld %Ld\n" (bits p.Year.best) (bits p.Year.median)
        (bits p.Year.p99) (bits p.Year.worst) (bits p.Year.fiber))
    r.Year.per_pair;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Checked-in fingerprint of a 16-interval Europe weather year on the
   designed network at jobs=1. *)
let golden_year_fingerprint = "f1960949d9e30d9c6288c2ad7ad5dc62"

let test_weather_width_invariant () =
  let a = Lazy.force artifacts in
  let inputs = Scenario.population_inputs a in
  let topo = Pool.with_default_jobs 1 (fun () -> Scenario.design inputs ~budget) in
  let year w =
    Pool.with_default_jobs w (fun () ->
        Cisp_weather.Year.run ~intervals:16 ~climate:Cisp_weather.Rainfield.eu_climate
          ~hops:a.Scenario.hops inputs topo)
  in
  let r1 = year 1 in
  Alcotest.(check string) "golden weather-year fingerprint (jobs=1)" golden_year_fingerprint
    (year_fingerprint r1);
  List.iter
    (fun w ->
      let rw = year w in
      Alcotest.(check int64)
        (Printf.sprintf "mean failed links bitwise, jobs=1 vs %d" w)
        (bits r1.Cisp_weather.Year.mean_failed_links)
        (bits rw.Cisp_weather.Year.mean_failed_links);
      Alcotest.(check bool)
        (Printf.sprintf "per-pair summaries identical, jobs=1 vs %d" w)
        true
        (r1.Cisp_weather.Year.per_pair = rw.Cisp_weather.Year.per_pair))
    [ 2; 4; 8 ]

(* Work the design run does at any width, pinned exactly: a change
   meant to alter the work edits these, so its diff shows by how
   much. *)
let golden_design_work =
  [ ("apsp.sources", 32); ("greedy.candidates", 28); ("greedy.links_built", 19) ]

(* The pool's share of that run, pinned per width as (pool.jobs,
   pool.jobs.seq, pool.chunks): parallel jobs, inline jobs and chunks
   claimed.  None of them depends on timing — a job's chunk count is a
   function of its range and the width — so a change to
   how a loop dispatches shows here by how much.  [Hops.all_links] adds
   none: [off1] already searched the memoized fixture, so the later
   searches find every path edge tested. *)
let golden_design_pool_work = [ (1, (0, 5, 5)); (4, (5, 0, 60)) ]

let test_telemetry_bit_identity () =
  (* The telemetry layer's core contract: enabling it changes nothing.
     Same design run with telemetry off and on, at jobs 1 and 4 — the
     topology, stretch, GeoJSON and capacity plan must be byte-identical
     (and the instrumented phases must actually have recorded). *)
  let module Telemetry = Cisp_util.Telemetry in
  Telemetry.reset ();
  Fun.protect ~finally:Telemetry.reset (fun () ->
      let off1 = run_design 1 and off4 = run_design 4 in
      Telemetry.enable_metrics ();
      let names =
        List.map fst golden_design_work @ [ "pool.jobs"; "pool.jobs.seq"; "pool.chunks" ]
      in
      let work () = List.map Telemetry.counter names in
      let on1 = run_design 1 in
      let work1 = work () in
      let on4 = run_design 4 in
      let work4 = List.map2 ( - ) (work ()) work1 in
      List.iter
        (fun (width, got) ->
          let jobs, seq, chunks = List.assoc width golden_design_pool_work in
          let expected = List.map snd golden_design_work @ [ jobs; seq; chunks ] in
          List.iter2
            (fun name (expected, got) ->
              Alcotest.(check int) (Printf.sprintf "%s (jobs=%d)" name width) expected got)
            names (List.combine expected got))
        [ (1, work1); (4, work4) ];
      List.iter
        (fun (label, ((t_off, s_off, g_off, _) as off), ((t_on, s_on, g_on, _) as on)) ->
          Alcotest.(check (list (pair int int)))
            (label ^ ": built links identical") t_off.Topology.built t_on.Topology.built;
          Alcotest.(check int64) (label ^ ": stretch bitwise") (bits s_off) (bits s_on);
          Alcotest.(check string) (label ^ ": GeoJSON identical") g_off g_on;
          Alcotest.(check string) (label ^ ": design fingerprint identical")
            (design_fingerprint off) (design_fingerprint on))
        [ ("jobs=1", off1, on1); ("jobs=4", off4, on4) ];
      List.iter
        (fun span ->
          Alcotest.(check bool)
            (Printf.sprintf "phase %s recorded nonzero time" span)
            true
            (Telemetry.span_calls span > 0 && Telemetry.span_total_s span > 0.0))
        (* [run_design] reuses memoized artifacts, so only the per-call
           phases appear here; hops.build is covered by the CLI smoke
           run in CI. *)
        [ "hops.all_links"; "apsp"; "greedy.score"; "greedy.design"; "capacity.plan" ])

(* ---------- failure-scenario golden suite ---------- *)

module Scenarios = Cisp_weather.Scenarios

(* The four golden scenarios of the resilience story: a convective
   deluge, a storm-field replay, a hurricane window marching across the
   deployment, and two correlated regional tower outages. *)
let run_scenario_suite width =
  Pool.with_default_jobs width (fun () ->
      let a = Lazy.force artifacts in
      let inputs = Scenario.population_inputs a in
      let topo = Scenario.design inputs ~budget in
      let spare = Capacity.spare_from_registry a.Scenario.hops in
      let plan = Capacity.plan ~spare_series_at_hop:spare inputs topo ~aggregate_gbps:10.0 in
      let model =
        { Cisp_sim.Routing.inputs; topology = topo;
          mw_gbps = Cisp_sim.Builder.provisioned_mw_gbps plan;
          fiber_gbps = Cisp_sim.Builder.default_config.Cisp_sim.Builder.fiber_gbps }
      in
      let demands =
        Cisp_traffic.Matrix.scale_to_gbps inputs.Inputs.traffic ~aggregate_gbps:10.0
      in
      let schemes = Scenarios.default_schemes ~k:3 in
      let eye = inputs.Inputs.sites.(0).Cisp_data.City.coord in
      let specs =
        [
          Scenarios.Uniform_rain { mm_h = 110.0 };
          Scenarios.Rain_replay { climate = Cisp_weather.Rainfield.eu_climate; intervals = 6 };
          Scenarios.Hurricane
            { center = eye; track_bearing_deg = 40.0; step_km = 60.0; intervals = 6 };
          Scenarios.Correlated_towers { blobs = 2; radius_km = 150.0; intervals = 6 };
        ]
      in
      let results =
        List.map
          (fun spec ->
            Scenarios.run ~schemes ~hops:a.Scenario.hops ~model ~demands_gbps:demands spec)
          specs
      in
      (results, Scenarios.frontier_csv results))

(* Every float of a result, bitwise — NaN-safe, unlike polymorphic
   equality. *)
let scenario_bits results =
  List.map
    (fun r ->
      ( r.Scenarios.name,
        r.Scenarios.intervals,
        bits r.Scenarios.mean_failed_links,
        List.map
          (fun s ->
            ( s.Scenarios.scheme,
              bits s.Scenarios.availability,
              bits s.Scenarios.mean_stretch,
              bits s.Scenarios.p99_stretch,
              bits s.Scenarios.worst_stretch ))
          r.Scenarios.schemes ))
    results

(* MD5 over [scenario_bits]: every float of every result, by its
   bits, where the CSV keeps only six decimals. *)
let scenario_fingerprint results =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, intervals, failed, schemes) ->
      Printf.bprintf b "%s %d %Ld\n" name intervals failed;
      List.iter
        (fun (scheme, avail, mean, p99, worst) ->
          Printf.bprintf b "%s %Ld %Ld %Ld %Ld\n" scheme avail mean p99 worst)
        schemes)
    (scenario_bits results);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Checked-in fingerprint of the suite's results at jobs=1. *)
let golden_scenario_fingerprint = "45ae9c6297128279a4e9828fff5001f7"

(* Checked-in expected frontier for the 8-site Europe fixture: any
   drift in routing, the failure model, or the scenario replay shows
   up as a diff here. *)
let golden_frontier_csv =
  "scenario,scheme,availability,mean_stretch,p99_stretch,worst_stretch,mean_failed_links\n\
   uniform-rain,shortest-recompute,1.000000,1.930000,1.930000,1.930000,13.0000\n\
   uniform-rain,failover-k3,0.700809,1.930000,1.930000,1.930000,13.0000\n\
   uniform-rain,split-k3,0.700809,1.942831,2.026460,2.026460,13.0000\n\
   rain-replay,shortest-recompute,1.000000,1.036395,1.585808,1.585808,0.0000\n\
   rain-replay,failover-k3,1.000000,1.036395,1.585808,1.585808,0.0000\n\
   rain-replay,split-k3,1.000000,1.425952,1.961211,1.961211,0.0000\n\
   hurricane,shortest-recompute,1.000000,1.038350,1.585808,1.585808,0.1667\n\
   hurricane,failover-k3,1.000000,1.040195,1.585808,1.598297,0.1667\n\
   hurricane,split-k3,1.000000,1.425031,1.961211,1.961211,0.1667\n\
   correlated-towers,shortest-recompute,1.000000,1.161804,1.930000,1.930000,2.3333\n\
   correlated-towers,failover-k3,0.978155,1.176764,1.930000,1.930000,2.3333\n\
   correlated-towers,split-k3,0.978155,1.495399,2.228767,2.230679,2.3333\n"

let test_scenario_suite_golden () =
  let r1, csv1 = run_scenario_suite 1 in
  Alcotest.(check string) "golden frontier (jobs=1)" golden_frontier_csv csv1;
  Alcotest.(check string) "golden scenario fingerprint (jobs=1)" golden_scenario_fingerprint
    (scenario_fingerprint r1);
  let b1 = scenario_bits r1 in
  List.iter
    (fun w ->
      let rw, csvw = run_scenario_suite w in
      Alcotest.(check string) (Printf.sprintf "frontier CSV, jobs=1 vs %d" w) csv1 csvw;
      Alcotest.(check bool)
        (Printf.sprintf "results bitwise, jobs=1 vs %d" w)
        true
        (b1 = scenario_bits rw))
    [ 2; 4; 8 ]

(* MD5 over the tower hop graph, every verdict forced: the feasible
   tower-tower hop count and every edge (node, dst, weight bits) in
   adjacency order.  The design fingerprint only sees shortest paths;
   this one sees every LOS verdict. *)
let hop_graph_fingerprint (h : Hops.t) =
  let module G = Cisp_graph.Graph in
  let g = Hops.force_graph h in
  let b = Buffer.create 65536 in
  Printf.bprintf b "feasible %d\n" h.Hops.feasible_hops;
  for u = 0 to G.node_count g - 1 do
    for a = g.G.first.(u) to g.G.first.(u + 1) - 1 do
      if not (G.is_removed g g.G.arc_edge.(a)) then
        Printf.bprintf b "%d %d %Ld\n" u g.G.arc_dst.(a) (bits g.G.arc_weight.(a))
    done
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Checked-in hop-graph fingerprint of the 8-site Europe fixture at
   jobs=1. *)
let golden_hop_graph_fingerprint = "46934bba79370be361fcaa91f342dc57"

(* Work of one cold build, pinned exactly.  A change meant to alter
   the work edits these, so its diff shows by how much.  The lazy
   [all_links]: LOS tests, DEM evaluations (the node endpoints'
   included) and search settles.  Then every verdict forced: all DEM
   evaluations and LOS tests (the pairs out of range are blocked by
   their distance, untested). *)
let golden_search_los_tests = 15_734
let golden_search_dem_evaluations = 265_237
let golden_search_settles = 476_780
let golden_sweep_dem_evaluations = 14_879_779
let golden_sweep_los_tests = 566_584

type cold_run = {
  links : Hops.link option array array;
  search : int * int * int;  (* LOS tests, DEM evaluations, settles *)
  feasible : int;
  fingerprint : string;
  sweep : int * int;  (* DEM evaluations, LOS tests *)
}

let test_los_sweep_width_invariant () =
  (* Build the tower hop graph from a fresh [Dem_cache] at several
     pool widths, search it lazily, then force every verdict: covers
     the lazy search, the LOS + Fresnel test and the cell-centre
     terrain sampling.  The forced graph must match the golden digest
     at jobs=1, and every width must give the same links, graph and
     work. *)
  let a = Lazy.force artifacts in
  let module Telemetry = Cisp_util.Telemetry in
  let run w =
    Pool.with_default_jobs w (fun () ->
        Telemetry.reset ();
        Fun.protect ~finally:Telemetry.reset (fun () ->
            Telemetry.enable_metrics ();
            let cache = Cisp_terrain.Dem_cache.create a.Scenario.dem in
            let evaluations () = snd (Cisp_terrain.Dem_cache.stats cache) in
            let h =
              Hops.build ~config:a.Scenario.hops.Hops.config ~cache
                ~sites:(Array.to_list a.Scenario.sites) ~towers:a.Scenario.towers ()
            in
            let links = Hops.all_links h in
            let search =
              ( Telemetry.counter "hops.los_tests",
                evaluations (),
                Telemetry.counter "hops.search.settles" )
            in
            let fingerprint = hop_graph_fingerprint h in
            {
              links;
              search;
              feasible = h.Hops.feasible_hops;
              fingerprint;
              sweep = (evaluations (), Telemetry.counter "hops.los_tests");
            }))
  in
  let r1 = run 1 in
  let search_tests, search_evaluations, settles = r1.search in
  Alcotest.(check int) "lazy search LOS tests (jobs=1)" golden_search_los_tests search_tests;
  Alcotest.(check int) "lazy search DEM evaluations (jobs=1)" golden_search_dem_evaluations
    search_evaluations;
  Alcotest.(check int) "lazy search settles (jobs=1)" golden_search_settles settles;
  Alcotest.(check string) "golden hop-graph fingerprint (jobs=1)"
    golden_hop_graph_fingerprint r1.fingerprint;
  Alcotest.(check int) "DEM evaluations (jobs=1)" golden_sweep_dem_evaluations (fst r1.sweep);
  Alcotest.(check int) "LOS tests (jobs=1)" golden_sweep_los_tests (snd r1.sweep);
  List.iter
    (fun w ->
      let rw = run w in
      let label fmt = Printf.sprintf fmt w in
      Alcotest.(check bool) (label "MW links, jobs=1 vs %d") true (r1.links = rw.links);
      Alcotest.(check (triple int int int))
        (label "lazy search tests, evaluations and settles, jobs=1 vs %d")
        r1.search rw.search;
      Alcotest.(check int) (label "feasible hops, jobs=1 vs %d") r1.feasible rw.feasible;
      Alcotest.(check string) (label "hop-graph fingerprint, jobs=1 vs %d") r1.fingerprint
        rw.fingerprint;
      Alcotest.(check (pair int int)) (label "DEM evaluations and LOS tests, jobs=1 vs %d")
        r1.sweep rw.sweep)
    [ 2; 4; 8 ]

let suites =
  [
    ( "determinism.parallel",
      [
        Alcotest.test_case "design pipeline at jobs 1/2/4/8" `Slow test_design_width_invariant;
        Alcotest.test_case "packet run golden at jobs 1/2/4/8" `Slow test_packet_run_golden;
        Alcotest.test_case "APSP link matrix" `Slow test_apsp_width_invariant;
        Alcotest.test_case "metric closures" `Slow test_metric_width_invariant;
        Alcotest.test_case "weather year at jobs 1/2/4/8" `Slow test_weather_width_invariant;
        Alcotest.test_case "scenario suite golden at jobs 1/2/4/8" `Slow test_scenario_suite_golden;
        Alcotest.test_case "LOS sweep on a cold cache" `Slow test_los_sweep_width_invariant;
        Alcotest.test_case "telemetry on/off bit-identity" `Slow test_telemetry_bit_identity;
      ] );
  ]
