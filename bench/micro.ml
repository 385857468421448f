(* Bechamel micro-benchmarks: one Test.make per paper table/figure,
   timing the computational kernel that experiment leans on.  The full
   experiment harnesses (fig*.ml) regenerate the tables themselves;
   these quantify the kernels' costs. *)

open Bechamel
open Toolkit

let make_tests ctx =
  let inputs = Ctx.us_inputs ctx in
  let topo = Ctx.us_topology ctx in
  let a = Ctx.us_artifacts ctx in
  let small = Cisp_design.Inputs.restrict inputs ~indices:(Array.init 8 (fun i -> i)) in
  let w = Cisp_design.Greedy.weight_matrix inputs in
  let base = Cisp_design.Topology.fiber_baseline inputs in
  let dem = a.Cisp_design.Scenario.dem in
  let p1 = Cisp_geo.Coord.make ~lat:40.0 ~lon:(-100.0) in
  let p2 = Cisp_geo.Coord.make ~lat:40.3 ~lon:(-99.5) in
  let ep p = Cisp_rf.Los.endpoint_of_tower ~dem p ~antenna_m:120.0 in
  let e1 = ep p1 and e2 = ep p2 in
  let cache = a.Cisp_design.Scenario.cache in
  let field = Cisp_weather.Rainfield.sample Cisp_weather.Rainfield.us_climate ~day:42 in
  let pages = Cisp_apps.Web.generate ~count:10 in
  [
    Test.make ~name:"sec2_hop_loss" (Staged.stage (fun () ->
        Cisp_weather.Failure.hop_loss_probability ~rain_mm_h:25.0 ~d_km:60.0 ()));
    Test.make ~name:"fig2_ilp_formulate" (Staged.stage (fun () ->
        Cisp_design.Ilp.formulate small ~budget:200
          ~candidates:(Cisp_design.Greedy.candidates small)));
    Test.make ~name:"fig3_greedy_benefit" (Staged.stage (fun () ->
        Cisp_design.Greedy.benefit inputs w base (0, 1)));
    Test.make ~name:"fig4_dijkstra_tower_graph" (Staged.stage (fun () ->
        Cisp_graph.Dijkstra.run_to a.Cisp_design.Scenario.hops.Cisp_towers.Hops.graph ~src:0 ~dst:1));
    Test.make ~name:"fig5_event_loop_10k" (Staged.stage (fun () ->
        let eng = Cisp_sim.Engine.create () in
        for i = 1 to 10_000 do
          Cisp_sim.Engine.schedule eng ~at:(float_of_int i) (fun () -> ())
        done;
        Cisp_sim.Engine.run eng ~until:20_000.0));
    Test.make ~name:"fig6_tcp_flow" (Staged.stage (fun () ->
        let eng = Cisp_sim.Engine.create () in
        let net = Cisp_sim.Net.create eng ~n_nodes:3 in
        Cisp_sim.Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:1.0 ~buffer_bytes:max_int;
        Cisp_sim.Net.add_duplex net 1 2 ~gbps:0.1 ~delay_ms:1.0 ~buffer_bytes:max_int;
        Cisp_sim.Tcp.start_flow net (Cisp_sim.Tcp.default_config ~ack_delay_s:0.002)
          ~flow_id:1 ~route:[| 0; 1; 2 |] ~size_bytes:50_000 ~at:0.0 ~on_complete:(fun _ -> ());
        Cisp_sim.Engine.run eng ~until:10.0));
    Test.make ~name:"fig7_rain_field_sample" (Staged.stage (fun () ->
        Cisp_weather.Rainfield.rain_at field p1));
    Test.make ~name:"fig8_geodesic" (Staged.stage (fun () -> Cisp_geo.Geodesy.distance_km p1 p2));
    Test.make ~name:"fig9_traffic_matrix" (Staged.stage (fun () ->
        Cisp_traffic.Matrix.population_product inputs.Cisp_design.Inputs.sites));
    Test.make ~name:"fig10_los_check" (Staged.stage (fun () ->
        Cisp_rf.Los.check_cached ~cache e1 e2));
    Test.make ~name:"fig11_incremental_metric" (Staged.stage (fun () ->
        Cisp_design.Topology.distances_incremental inputs base
          (List.hd topo.Cisp_design.Topology.built)));
    Test.make ~name:"fig12_frame_time" (Staged.stage (fun () ->
        Cisp_apps.Gaming.frame_time_ms Cisp_apps.Gaming.Thin_speculative_cisp ~one_way_ms:50.0));
    Test.make ~name:"fig13_plt" (Staged.stage (fun () ->
        List.map (fun p -> Cisp_apps.Web.plt_ms p Cisp_apps.Web.cisp) pages));
  ]

let run ctx =
  Ctx.section "Bechamel micro-benchmarks (per-figure kernels, ns/run)";
  let tests = make_tests ctx in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let quota = if ctx.Ctx.quick then Time.second 0.2 else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:300 ~quota ~stabilize:false () in
  let grouped = Test.make_grouped ~name:"cisp" tests in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] -> Printf.printf "%-32s %12.0f ns/run\n" name t
      | _ -> Printf.printf "%-32s (no estimate)\n" name)
    (List.sort compare rows);
  Printf.printf "%!"
