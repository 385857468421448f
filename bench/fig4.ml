(* Fig 4: (a) stretch vs tower budget at 70/100 km max hop range;
   (b) successive tower-disjoint paths on the longest link;
   (c) cost per GB vs aggregate throughput. *)

open Cisp_design
module Hops = Cisp_towers.Hops
module Graph = Cisp_graph.Graph

let run_a ctx =
  Ctx.section "Fig 4(a): network stretch vs tower budget";
  let budgets =
    if ctx.Ctx.quick then [ 300; 600; 900 ] else [ 500; 1000; 1500; 2000; 3000; 4500; 6000 ]
  in
  let ranges = if ctx.Ctx.quick then [ 100.0 ] else [ 70.0; 100.0 ] in
  Printf.printf "%-10s" "budget";
  List.iter (fun r -> Printf.printf "range=%-6.0fkm " r) ranges;
  Printf.printf "\n";
  let inputs_for range =
    if Float.equal range 100.0 then Ctx.us_inputs ctx
    else begin
      let config = { (Ctx.us_config ctx) with Scenario.max_range_km = range } in
      Scenario.population_inputs (Scenario.artifacts ~config ())
    end
  in
  let per_range = List.map (fun r -> (r, inputs_for r)) ranges in
  List.iter
    (fun budget ->
      Printf.printf "%-10d" budget;
      List.iter
        (fun (_, inputs) ->
          let topo = Scenario.design inputs ~budget in
          Printf.printf "%-13.4f " (Topology.stretch_of topo))
        per_range;
      Printf.printf "\n%!")
    budgets;
  Ctx.note "paper: stretch falls towards ~1.05 with budget; 70 and 100 km ranges are similar."

let run_b ctx =
  Ctx.section "Fig 4(b): tower-disjoint shortest paths on the longest link";
  let inputs = Ctx.us_inputs ctx in
  let topo = Ctx.us_topology ctx in
  let a = Ctx.us_artifacts ctx in
  let hops = a.Scenario.hops in
  match
    List.fold_left
      (fun acc (i, j) ->
        let d = inputs.Inputs.mw_km.(i).(j) in
        match acc with Some (_, _, d') when d' >= d -> acc | _ -> Some (i, j, d))
      None topo.Topology.built
  with
  | None -> Ctx.note "no MW links built"
  | Some (i, j, _) ->
    let geo = inputs.Inputs.geodesic_km.(i).(j) in
    let fiber_stretch = inputs.Inputs.fiber_km.(i).(j) /. geo in
    Printf.printf "link: %s <-> %s (%.0f km geodesic, fiber stretch %.2f)\n"
      inputs.Inputs.sites.(i).Cisp_data.City.name
      inputs.Inputs.sites.(j).Cisp_data.City.name geo fiber_stretch;
    let rounds = if ctx.Ctx.quick then 8 else 20 in
    (* Each round removes every edge at a tower the found path used;
       sites (the two ends among them) stay. *)
    let remove (work : Graph.t) edges =
      let remove_at v =
        if Hops.is_tower_node hops v then
          for a = work.first.(v) to work.first.(v + 1) - 1 do
            Graph.remove work work.arc_edge.(a)
          done
      in
      List.iter
        (fun e ->
          remove_at work.edge_u.(e);
          remove_at work.edge_v.(e))
        edges
    in
    let paths =
      Cisp_graph.Multipath.successive (Hops.force_graph hops) ~src:i ~dst:j ~k:rounds ~remove
    in
    Printf.printf "%-8s %-12s %-10s\n" "round" "length km" "stretch";
    List.iteri
      (fun k (d, _) -> Printf.printf "%-8d %-12.0f %-10.3f\n" (k + 1) d (d /. geo))
      paths;
    Printf.printf "(paper: stretch grows 1.02 -> ~1.15 over 20 rounds, still below fiber 1.75)\n%!"

let run_c ctx =
  Ctx.section "Fig 4(c): cost per GB vs aggregate throughput (city-city model)";
  let inputs = Ctx.us_inputs ctx in
  let topo = Ctx.us_topology ctx in
  let a = Ctx.us_artifacts ctx in
  let spare = Capacity.spare_from_registry a.Scenario.hops in
  let rates =
    if ctx.Ctx.quick then [ 10.0; 100.0 ] else [ 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0 ]
  in
  Printf.printf "%-14s %-12s %-12s %-12s\n" "gbps" "cost/GB" "new towers" "radios";
  List.iter
    (fun gbps ->
      let plan = Capacity.plan ~spare_series_at_hop:spare inputs topo ~aggregate_gbps:gbps in
      Printf.printf "%-14.0f $%-11.2f %-12d %-12d\n%!" gbps
        (Capacity.cost_per_gb Cost.default plan ~aggregate_gbps:gbps)
        plan.Capacity.new_towers plan.Capacity.radios)
    rates;
  Ctx.note "paper: cost/GB decreases with throughput (~$0.81 at 100 Gbps)."

let run ctx =
  run_a ctx;
  run_b ctx;
  run_c ctx
