(* The paper's headline scenario: a ~1.05x-stretch backbone across the
   US population centers (Fig 3), on a reduced site count so the
   example runs in ~10 s:

     dune exec examples/us_backbone.exe            # 40 centers
     SITES=112 dune exec examples/us_backbone.exe  # full scale *)

open Cisp

let () =
  let n_sites =
    match Sys.getenv_opt "SITES" with Some s -> int_of_string s | None -> 40
  in
  let config = { Design.Scenario.default_config with n_sites = Some n_sites } in
  Printf.printf "building artifacts (terrain, %d-center tower registry, fiber)...\n%!" n_sites;
  let a = Design.Scenario.artifacts ~config () in
  (* The feasible-hop count is the whole graph's. *)
  ignore (Towers.Hops.force_graph a.Design.Scenario.hops);
  Printf.printf "  towers: %d culled, %d feasible hops, fiber inflation %.2fx\n%!"
    (List.length a.Design.Scenario.towers)
    a.Design.Scenario.hops.Towers.Hops.feasible_hops
    (Fiber.Conduit.mean_latency_inflation a.Design.Scenario.fiber);
  let inputs = Design.Scenario.population_inputs a in
  let budget = 27 * n_sites in
  Printf.printf "designing at %d-tower budget...\n%!" budget;
  let topo = Design.Scenario.design inputs ~budget in
  Printf.printf "  %d links, stretch %.3f (paper: 1.05 at full scale)\n%!"
    (List.length topo.Design.Topology.built)
    (Design.Topology.stretch_of topo);
  let spare = Design.Capacity.spare_from_registry a.Design.Scenario.hops in
  let plan = Design.Capacity.plan ~spare_series_at_hop:spare inputs topo ~aggregate_gbps:100.0 in
  Printf.printf "provisioned for 100 Gbps: %d hops" plan.Design.Capacity.hops_total;
  List.iter
    (fun (cls, n) -> Printf.printf ", %d hops need %d new towers/end" n cls)
    plan.Design.Capacity.hop_classes;
  Printf.printf "\ncost per GB: $%.2f (paper: $0.81)\n"
    (Design.Capacity.cost_per_gb Design.Cost.default plan ~aggregate_gbps:100.0);
  (* Show the five busiest links. *)
  let loads = Design.Capacity.route_loads inputs topo ~aggregate_gbps:100.0 in
  let top =
    List.sort (fun (_, a) (_, b) -> Float.compare b a) loads |> List.filteri (fun i _ -> i < 5)
  in
  Printf.printf "busiest links:\n";
  List.iter
    (fun ((i, j), gbps) ->
      Printf.printf "  %-24s <-> %-24s %.1f Gbps\n" inputs.Design.Inputs.sites.(i).Data.City.name
        inputs.Design.Inputs.sites.(j).Data.City.name gbps)
    top
