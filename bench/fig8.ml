(* Fig 8: a cISP for Europe with the same aggregate capacity and a
   similar tower budget, using the paper's assumed 1.9x fiber
   inflation (no EU conduit data). *)

open Cisp_design

let run ctx =
  Ctx.section "Fig 8: European cISP (cities > 300k population)";
  let config =
    if ctx.Ctx.quick then { Scenario.europe_config with Scenario.n_sites = Some 30 }
    else Scenario.europe_config
  in
  let a, secs = Ctx.time (fun () -> Scenario.artifacts ~config ()) in
  (* The feasible-hop count is the whole graph's. *)
  ignore (Cisp_towers.Hops.force_graph a.Scenario.hops);
  Printf.printf "sites=%d towers=%d feasible hops=%d (%.1fs)\n"
    (Array.length a.Scenario.sites) (List.length a.Scenario.towers)
    a.Scenario.hops.Cisp_towers.Hops.feasible_hops secs;
  let inputs = Scenario.population_inputs a in
  let budget = Ctx.us_budget ctx in
  let topo, dsecs = Ctx.time (fun () -> Scenario.design inputs ~budget) in
  let spare = Capacity.spare_from_registry a.Scenario.hops in
  let plan = Capacity.plan ~spare_series_at_hop:spare inputs topo ~aggregate_gbps:Ctx.aggregate_gbps in
  Printf.printf "budget=%d towers  links=%d  stretch=%.3f  (design %.1fs)\n" budget
    (List.length topo.Topology.built) (Topology.stretch_of topo) dsecs;
  Printf.printf "cost per GB @ %.0f Gbps: $%.2f\n%!" Ctx.aggregate_gbps
    (Capacity.cost_per_gb Cost.default plan ~aggregate_gbps:Ctx.aggregate_gbps);
  Ctx.note "paper: 1.04x stretch with ~3k towers at 100 Gbps, cost similar to the US design."
