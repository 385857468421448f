(* Ablations of the design choices DESIGN.md calls out:

   1. the paper's oracle pruning (variable elimination) in the ILP;
   2. aggregated vs strong (per-commodity) linking rows;
   3. the greedy selection rule (absolute vs per-tower benefit);
   4. the local-search polish on top of greedy;
   5. the probabilistic tower-acquisition refinement (paper §6.5). *)

open Cisp_design

let run ctx =
  Ctx.section "Ablation 1: ILP oracle pruning (paper's variable elimination)";
  let inputs = Ctx.us_inputs ctx in
  let n = if ctx.Ctx.quick then 6 else 7 in
  let sub = Inputs.restrict inputs ~indices:(Array.init n (fun i -> i)) in
  let budget = 27 * n in
  let candidates = Greedy.candidates sub in
  Printf.printf "%-16s %-12s %-12s %-12s\n" "pruning" "flow vars" "time (s)" "stretch";
  List.iter
    (fun oracle_pruning ->
      let (topo, stats), secs =
        Ctx.time (fun () ->
            Ilp.design ~time_limit_s:30.0 ~oracle_pruning sub ~budget ~candidates)
      in
      Printf.printf "%-16b %-12d %-12.2f %-12.4f\n%!" oracle_pruning stats.Ilp.flow_vars secs
        (Topology.stretch_of topo))
    [ true; false ];

  Ctx.section "Ablation 2: aggregated vs strong linking rows";
  Printf.printf "%-16s %-12s %-12s %-12s\n" "linking" "lp solves" "time (s)" "stretch";
  List.iter
    (fun strong_linking ->
      let (topo, stats), secs =
        Ctx.time (fun () ->
            Ilp.design ~time_limit_s:30.0 ~strong_linking sub ~budget ~candidates)
      in
      Printf.printf "%-16s %-12d %-12.2f %-12.4f\n%!"
        (if strong_linking then "strong" else "aggregated")
        stats.Ilp.lp_solves secs (Topology.stretch_of topo))
    [ false; true ];

  Ctx.section "Ablation 3: greedy selection rule";
  let budget_full = Ctx.us_budget ctx in
  Printf.printf "%-16s %-12s %-10s\n" "rule" "stretch" "towers";
  List.iter
    (fun (name, rule) ->
      let topo = Greedy.design ~rule inputs ~budget:budget_full in
      Printf.printf "%-16s %-12.4f %-10d\n%!" name (Topology.stretch_of topo) topo.Topology.cost)
    [ ("per-cost", Greedy.Per_cost); ("absolute", Greedy.Absolute) ];

  Ctx.section "Ablation 4: local-search polish";
  let seed = Greedy.design inputs ~budget:budget_full in
  let polished =
    Local_search.improve inputs ~budget:budget_full
      ~candidates:(Greedy.candidate_set inputs ~budget:budget_full ~inflation:2.0)
      seed
  in
  Printf.printf "greedy alone      : %.4f\n" (Topology.stretch_of seed);
  Printf.printf "greedy + swaps    : %.4f\n%!" (Topology.stretch_of polished);

  Ctx.section "Ablation 5: probabilistic tower acquisition (paper sec 6.5)";
  let a = Ctx.us_artifacts ctx in
  let hops = a.Scenario.hops in
  (* Refine a representative medium-length link of the designed
     network (the paper's video shows per-route refinement; prior
     viability over transcontinental swathes is naturally tiny). *)
  let topo = Ctx.us_topology ctx in
  (match
     List.fold_left
       (fun acc (i, j) ->
         let d = inputs.Inputs.mw_km.(i).(j) in
         let score = Float.abs (d -. 500.0) in
         match acc with
         | Some (_, _, best) when Float.abs (best -. 500.0) <= score -> acc
         | _ -> Some (i, j, d))
       None topo.Topology.built
   with
  | None -> Ctx.note "no links built"
  | Some (i, j, d) ->
    Printf.printf "link %s <-> %s (%.0f km):\n"
      inputs.Inputs.sites.(i).Cisp_data.City.name inputs.Inputs.sites.(j).Cisp_data.City.name d;
    let session = Cisp_towers.Refine.create ~hops ~src:i ~dst:j in
    let samples = if ctx.Ctx.quick then 40 else 150 in
    let s = Cisp_towers.Refine.stats ~samples session in
    Printf.printf "  prior: viability %.0f%%, %d distinct candidate paths, p50 %.0f km, p95 %.0f km\n%!"
      (100.0 *. s.Cisp_towers.Refine.viability) s.Cisp_towers.Refine.distinct_paths
      s.Cisp_towers.Refine.length_p50_km s.Cisp_towers.Refine.length_p95_km;
    (* Confirm the towers of the best prior path and re-evaluate. *)
    (match Cisp_towers.Refine.sample_paths ~samples session with
    | (_, best) :: _ ->
      List.iter
        (fun t -> if t >= 0 then Cisp_towers.Refine.confirm session ~tower:t (Cisp_towers.Refine.Acquired 0.9))
        best;
      (match Cisp_towers.Refine.committed_path session with
      | Some (len, path) ->
        Printf.printf "  after confirming %d towers: committed path of %.0f km (stretch %.3f)\n%!"
          (List.length (List.filter (fun t -> t >= 0) path))
          len
          (len /. inputs.Inputs.geodesic_km.(i).(j))
      | None -> Printf.printf "  committed path not yet viable\n%!")
    | [] -> Printf.printf "  no candidate paths sampled\n%!"))

(* Appended: the §3.4/§4 technology-generality analysis. *)
let run_media ctx =
  ignore ctx;
  Ctx.section "Ablation 6: per-link technology crossover (paper secs 3.4, 4)";
  Printf.printf "%-12s" "gbps \\ km";
  List.iter (fun km -> Printf.printf "%-14.0f" km) [ 50.0; 200.0; 500.0; 1500.0 ];
  Printf.printf "\n";
  List.iter
    (fun gbps ->
      Printf.printf "%-12.0f" gbps;
      List.iter
        (fun km ->
          let c = Cisp_rf.Medium.cheapest_for ~link_km:km ~target_gbps:gbps ~tower_usd:100_000.0 in
          let tag =
            match c.Cisp_rf.Medium.medium.Cisp_rf.Medium.technology with
            | Cisp_rf.Medium.Microwave -> "mw"
            | Cisp_rf.Medium.Millimeter_wave -> "mmw"
            | Cisp_rf.Medium.Free_space_optics -> "fso"
          in
          Printf.printf "%-14s" (Printf.sprintf "%s $%.1fM" tag (c.Cisp_rf.Medium.capex_usd /. 1e6)))
        [ 50.0; 200.0; 500.0; 1500.0 ];
      Printf.printf "\n%!")
    [ 1.0; 10.0; 64.0; 200.0; 1000.0 ];
  Ctx.note
    "paper sec 4: beyond the k-squared trick's siting limits, shorter-range higher-rate\n\
     technologies (MMW / FSO) become the cost-effective way to add bandwidth."

let run ctx =
  run ctx;
  run_media ctx
