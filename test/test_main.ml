let () =
  Alcotest.run "cisp"
    (List.concat
       [
         Test_util.suites;
         Test_telemetry.suites;
         Test_pool.suites;
         Test_geo.suites;
         Test_terrain.suites;
         Test_rf.suites;
         Test_graph.suites;
         Test_lp.suites;
         Test_data.suites;
         Test_towers.suites;
         Test_fiber.suites;
         Test_traffic.suites;
         Test_design.suites;
         Test_sim.suites;
         Test_weather.suites;
         Test_apps.suites;
         Test_integration.suites;
         Test_determinism.suites;
         Test_orbit.suites;
         Test_lint.suites;
       ])
