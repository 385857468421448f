(* Fig 2: (a) the exact ILP does not scale while the heuristic handles
   the full problem; (b) at small scales the heuristic matches the ILP
   optimum. *)

open Cisp_design

let budget_per_site = 27 (* ~3000 towers at 112 sites, like 6000 at 120 *)

let subset_inputs ctx n =
  let inputs = Ctx.us_inputs ctx in
  Inputs.restrict inputs ~indices:(Array.init n (fun i -> i))

let status_string = function
  | `Optimal -> "optimal"
  | `Feasible_gap g -> Printf.sprintf "gap %.1f%%" (100.0 *. g)
  | `Infeasible -> "infeasible"
  | `Unbounded -> "unbounded"
  | `No_solution -> "no solution"

let run ctx =
  Ctx.section "Fig 2(a): solver runtime scaling (seconds)";
  let ilp_cap = if ctx.Ctx.quick then 10.0 else 45.0 in
  let ilp_sizes = if ctx.Ctx.quick then [ 4; 6 ] else [ 4; 5; 6; 7; 8; 9; 10 ] in
  Printf.printf "%-8s %-12s %-14s %s\n" "cities" "ilp time" "ilp status" "(budget = 27/city)";
  let ilp_results = ref [] in
  List.iter
    (fun n ->
      let inputs = subset_inputs ctx n in
      let budget = budget_per_site * n in
      let candidates = Greedy.candidate_set inputs ~budget ~inflation:2.0 in
      let (topo, stats), secs =
        Ctx.time (fun () -> Ilp.design ~time_limit_s:ilp_cap inputs ~budget ~candidates)
      in
      ilp_results := (n, topo, stats) :: !ilp_results;
      Printf.printf "%-8d %-12.2f %-14s (commodities=%d flows=%d nodes=%d)\n%!" n secs
        (status_string stats.Ilp.milp_status)
        stats.Ilp.commodities stats.Ilp.flow_vars stats.Ilp.nodes_explored)
    ilp_sizes;
  let heur_sizes =
    let full = Array.length (Ctx.us_inputs ctx).Inputs.sites in
    if ctx.Ctx.quick then [ 10; full ] else [ 10; 28; 56; 84; full ]
  in
  Printf.printf "%-8s %-12s\n" "cities" "heuristic time";
  List.iter
    (fun n ->
      let inputs = subset_inputs ctx n in
      let budget = budget_per_site * n in
      let _, secs = Ctx.time (fun () -> Scenario.design inputs ~budget) in
      Printf.printf "%-8d %-12.2f\n%!" n secs)
    heur_sizes;
  Ctx.note "paper: ILP fails beyond ~50 cities after 2 days; heuristic solves 120 cities in hours.";

  Ctx.section "Fig 2(b): heuristic vs exact stretch";
  Printf.printf "%-8s %-12s %-12s %-12s\n" "cities" "ilp" "heuristic" "lp-rounding";
  List.iter
    (fun (n, ilp_topo, stats) ->
      if stats.Ilp.milp_status = `Optimal then begin
        let inputs = subset_inputs ctx n in
        let budget = budget_per_site * n in
        let heur = Scenario.design inputs ~budget in
        let rounded =
          let candidates = Greedy.candidate_set inputs ~budget ~inflation:2.0 in
          match Lp_rounding.design inputs ~budget ~candidates with
          | Some t -> t
          | None -> Topology.empty inputs
        in
        Printf.printf "%-8d %-12.4f %-12.4f %-12.4f\n%!" n
          (Topology.stretch_of ilp_topo) (Topology.stretch_of heur)
          (Topology.stretch_of rounded)
      end)
    (List.rev !ilp_results);
  Ctx.note "paper: heuristic matches the ILP to two decimal places; LP rounding is worse."
