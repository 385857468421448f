open Cisp_design

let check_float eps = Alcotest.(check (float eps))

(* Synthetic 6-site ring instance: every pair has MW at 1.02x geodesic,
   fiber at 1.9x, cost proportional to distance. *)
let mk_sites n =
  Array.init n (fun i ->
      let c =
        Cisp_geo.Geodesy.destination
          (Cisp_geo.Coord.make ~lat:39.0 ~lon:(-95.0))
          ~bearing_deg:(float_of_int i *. 360.0 /. float_of_int n)
          ~distance_km:(250.0 +. (60.0 *. float_of_int (i mod 3)))
      in
      Cisp_data.City.make (Printf.sprintf "S%d" i)
        ~lat:(Cisp_geo.Coord.lat c) ~lon:(Cisp_geo.Coord.lon c)
        ~population:((i + 1) * 100_000))

let mk_inputs ?(n = 6) () =
  let sites = mk_sites n in
  Inputs.synthetic ~sites ~mw_stretch:1.02 ~mw_cost_per_km:0.02 ~fiber_stretch:1.9
    ~traffic:(Cisp_traffic.Matrix.population_product sites)

let inputs = mk_inputs ()

let test_inputs_validate () =
  Alcotest.(check bool) "valid" true (Inputs.validate inputs = Ok ());
  Alcotest.(check int) "n sites" 6 (Inputs.n_sites inputs)

let test_inputs_restrict () =
  let sub = Inputs.restrict inputs ~indices:[| 0; 2; 4 |] in
  Alcotest.(check int) "restricted" 3 (Inputs.n_sites sub);
  check_float 1e-9 "geodesic preserved" inputs.Inputs.geodesic_km.(0).(2) sub.Inputs.geodesic_km.(0).(1);
  check_float 1e-9 "traffic normalized" 1.0 (Cisp_traffic.Matrix.total sub.Inputs.traffic)

(* A site count below 1 is rejected before any artifact is built. *)
let test_scenario_site_count () =
  List.iter
    (fun k ->
      Alcotest.check_raises (Printf.sprintf "%d sites rejected" k)
        (Invalid_argument (Printf.sprintf "Scenario.artifacts: n_sites = %d < 1" k))
        (fun () ->
          ignore
            (Scenario.artifacts
               ~config:{ Scenario.europe_config with Scenario.n_sites = Some k }
               ())))
    [ 0; -2 ]

(* ---------- Topology ---------- *)

let test_topology_empty_is_fiber () =
  let t = Topology.empty inputs in
  check_float 1e-9 "empty topology = fiber stretch" 1.9 (Topology.stretch_of t)

let test_topology_add_remove () =
  let t = Topology.of_links inputs [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "built" true (Topology.is_built t 0 1);
  Alcotest.(check bool) "order-insensitive" true (Topology.is_built t 1 0);
  Alcotest.(check bool) "not built" false (Topology.is_built t 0 2);
  let t2 = Topology.remove t (1, 0) in
  Alcotest.(check bool) "removed" false (Topology.is_built t2 0 1);
  Alcotest.(check int) "cost restored" (Topology.link_cost inputs 2 3) t2.Topology.cost;
  (* add is idempotent *)
  let t3 = Topology.add t (0, 1) in
  Alcotest.(check int) "idempotent add" t.Topology.cost t3.Topology.cost

let test_topology_full_mesh_stretch () =
  let all = ref [] in
  for i = 0 to 5 do
    for j = i + 1 to 5 do
      all := (i, j) :: !all
    done
  done;
  let t = Topology.of_links inputs !all in
  check_float 1e-9 "all links -> mw stretch" 1.02 (Topology.stretch_of t)

let test_distances_incremental_exact () =
  (* Incremental closure equals recomputing from scratch. *)
  let base = Topology.fiber_baseline inputs in
  let d1 = Topology.distances_incremental inputs base (0, 3) in
  let t = Topology.of_links inputs [ (0, 3) ] in
  let d2 = Topology.distances t in
  for s = 0 to 5 do
    for u = 0 to 5 do
      check_float 1e-9 "metric equal" d2.(s).(u) d1.(s).(u)
    done
  done

let test_stretch_weighted () =
  (* Concentrating traffic on a served pair drops the mean stretch to
     that pair's stretch. *)
  let n = 6 in
  let traffic = Array.make_matrix n n 0.0 in
  traffic.(0).(1) <- 0.5;
  traffic.(1).(0) <- 0.5;
  let inp = { inputs with Inputs.traffic } in
  let t = Topology.of_links inp [ (0, 1) ] in
  check_float 1e-9 "pair stretch" 1.02 (Topology.stretch_of t)

(* ---------- Greedy ---------- *)

let test_greedy_respects_budget () =
  let budget = 40 in
  let t = Greedy.design inputs ~budget in
  Alcotest.(check bool) "within budget" true (t.Topology.cost <= budget);
  Alcotest.(check bool) "built something" true (t.Topology.built <> [])

let test_greedy_improves_monotonically () =
  let s0 = Topology.stretch_of (Topology.empty inputs) in
  let s1 = Topology.stretch_of (Greedy.design inputs ~budget:20) in
  let s2 = Topology.stretch_of (Greedy.design inputs ~budget:60) in
  Alcotest.(check bool) "20 improves over empty" true (s1 < s0);
  Alcotest.(check bool) "60 improves over 20" true (s2 <= s1 +. 1e-12)

let test_greedy_candidates_beneficial () =
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool) "mw beats fiber" true
        (inputs.Inputs.mw_km.(i).(j) < inputs.Inputs.fiber_km.(i).(j)))
    (Greedy.candidates inputs)

let test_greedy_zero_budget () =
  let t = Greedy.design inputs ~budget:0 in
  Alcotest.(check (list (pair int int))) "nothing built" [] t.Topology.built

let test_greedy_ordered_prefix () =
  let topo, order = Greedy.design_ordered inputs ~budget:60 in
  Alcotest.(check int) "order covers built" (List.length topo.Topology.built)
    (List.length order);
  List.iter
    (fun pair -> Alcotest.(check bool) "ordered link built" true (List.mem pair topo.Topology.built))
    order

(* ---------- ILP vs greedy vs brute force ---------- *)

let brute_force_best inputs ~budget ~candidates =
  let cands = Array.of_list candidates in
  let m = Array.length cands in
  let best = ref (Topology.stretch_of (Topology.empty inputs)) in
  for mask = 0 to (1 lsl m) - 1 do
    let links = ref [] in
    for b = 0 to m - 1 do
      if mask land (1 lsl b) <> 0 then links := cands.(b) :: !links
    done;
    let t = Topology.of_links inputs !links in
    if t.Topology.cost <= budget then begin
      let s = Topology.stretch_of t in
      if s < !best then best := s
    end
  done;
  !best

let test_ilp_matches_brute_force () =
  let inp = mk_inputs ~n:5 () in
  let budget = 30 in
  let candidates = Greedy.candidates inp in
  (* keep brute force tractable *)
  let candidates = List.filteri (fun i _ -> i < 8) candidates in
  let brute = brute_force_best inp ~budget ~candidates in
  let topo, stats = Ilp.design inp ~budget ~candidates in
  Alcotest.(check bool) "ilp finished" true (stats.Ilp.milp_status = `Optimal);
  check_float 1e-6 "ilp = brute force" brute (Topology.stretch_of topo)

let test_heuristic_matches_ilp () =
  (* The paper's Fig 2(b) claim on a small instance. *)
  let inp = mk_inputs ~n:6 () in
  let budget = 40 in
  let candidates = Greedy.candidates inp in
  let ilp_topo, stats = Ilp.design inp ~budget ~candidates in
  Alcotest.(check bool) "optimal" true (stats.Ilp.milp_status = `Optimal);
  let heur = Scenario.design inp ~budget in
  check_float 0.005 "heuristic ~ ilp" (Topology.stretch_of ilp_topo) (Topology.stretch_of heur)

let test_ilp_respects_budget () =
  let inp = mk_inputs ~n:5 () in
  let budget = 25 in
  let topo, _ = Ilp.design inp ~budget ~candidates:(Greedy.candidates inp) in
  Alcotest.(check bool) "within budget" true (topo.Topology.cost <= budget)

let test_lp_rounding_feasible () =
  let inp = mk_inputs ~n:5 () in
  let budget = 25 in
  match Lp_rounding.design inp ~budget ~candidates:(Greedy.candidates inp) with
  | None -> Alcotest.fail "relaxation should be feasible"
  | Some t -> Alcotest.(check bool) "within budget" true (t.Topology.cost <= budget)

(* ---------- Local search ---------- *)

let test_local_search_never_worse () =
  let budget = 50 in
  let seed = Greedy.design inputs ~budget in
  let improved =
    Local_search.improve inputs ~budget ~candidates:(Greedy.candidates inputs) seed
  in
  Alcotest.(check bool) "not worse" true
    (Topology.stretch_of improved <= Topology.stretch_of seed +. 1e-9);
  Alcotest.(check bool) "within budget" true (improved.Topology.cost <= budget)

let test_local_search_fills_budget () =
  (* Start from an empty topology: additions alone must engage. *)
  let budget = 40 in
  let improved =
    Local_search.improve inputs ~budget ~candidates:(Greedy.candidates inputs)
      (Topology.empty inputs)
  in
  Alcotest.(check bool) "built links" true (improved.Topology.built <> [])

(* ---------- Capacity & cost ---------- *)

let test_route_loads_conserve () =
  let t = Greedy.design inputs ~budget:60 in
  let loads = Capacity.route_loads inputs t ~aggregate_gbps:100.0 in
  List.iter
    (fun ((i, j), load) ->
      Alcotest.(check bool) "load nonnegative" true (load >= 0.0);
      Alcotest.(check bool) "link built" true (Topology.is_built t i j))
    loads

let test_capacity_plan_covers_demand () =
  let t = Greedy.design inputs ~budget:60 in
  let plan = Capacity.plan inputs t ~aggregate_gbps:50.0 in
  List.iter
    (fun lp ->
      Alcotest.(check bool) "series capacity >= load" true
        (Cisp_rf.Capacity.gbps_of_series lp.Capacity.series >= lp.Capacity.load_gbps -. 1e-6))
    plan.Capacity.links;
  Alcotest.(check bool) "hops counted" true (plan.Capacity.hops_total > 0);
  (* No spare info: every extra series charges new towers. *)
  let hops_with_extra =
    List.fold_left (fun acc lp -> if lp.Capacity.series > 1 then acc + lp.Capacity.hops else acc) 0
      plan.Capacity.links
  in
  let classed =
    List.fold_left (fun acc (cls, n) -> if cls > 0 then acc + n else acc) 0 plan.Capacity.hop_classes
  in
  Alcotest.(check int) "every extra-series hop classed > 0" hops_with_extra classed

let test_capacity_spare_reduces_new_towers () =
  let t = Greedy.design inputs ~budget:60 in
  let no_spare = Capacity.plan inputs t ~aggregate_gbps:200.0 in
  let all_spare = Capacity.plan ~spare_series_at_hop:(fun _ _ -> 1000) inputs t ~aggregate_gbps:200.0 in
  Alcotest.(check bool) "spare towers reduce new builds" true
    (all_spare.Capacity.new_towers <= no_spare.Capacity.new_towers);
  Alcotest.(check int) "full spare -> zero new" 0 all_spare.Capacity.new_towers

(* A built link exactly as long as its fiber pair carries nothing: the
   tie rides fiber, as in the routing schemes and the packet network. *)
let test_capacity_tie_rides_fiber () =
  let sites = mk_sites 6 in
  let tie =
    Inputs.synthetic ~sites ~mw_stretch:1.5 ~mw_cost_per_km:0.02 ~fiber_stretch:1.5
      ~traffic:(Cisp_traffic.Matrix.population_product sites)
  in
  let t = Topology.of_links tie [ (0, 1) ] in
  Alcotest.(check bool) "tie rides fiber" false (Topology.rides_mw t 0 1);
  List.iter
    (fun (_, load) -> check_float 0.0 "no load on the tied link" 0.0 load)
    (Capacity.route_loads tie t ~aggregate_gbps:10.0);
  check_float 0.0 "no traffic carried on MW" 0.0
    (Capacity.plan tie t ~aggregate_gbps:10.0).Capacity.mw_carried_fraction

let test_capacity_negative_aggregate () =
  let t = Greedy.design inputs ~budget:60 in
  let rejected = Invalid_argument "Capacity: aggregate_gbps < 0" in
  Alcotest.check_raises "route_loads" rejected (fun () ->
      ignore (Capacity.route_loads inputs t ~aggregate_gbps:(-1.0)));
  Alcotest.check_raises "plan" rejected (fun () ->
      ignore (Capacity.plan inputs t ~aggregate_gbps:(-1.0)))

(* Two sites one degree of longitude apart, with all eight registry
   towers within 2 km of the hop's midpoint. *)
let registry_around ~lat ~lon =
  let site k =
    Cisp_data.City.make (Printf.sprintf "R%d" k) ~lat ~lon:(lon +. float_of_int k)
      ~population:1000
  in
  let sites = [| site 0; site 1 |] in
  let mid = Cisp_geo.Geodesy.midpoint sites.(0).Cisp_data.City.coord sites.(1).Cisp_data.City.coord in
  let towers =
    Array.init 8 (fun id ->
        Cisp_towers.Tower.make ~id
          ~position:
            (Cisp_geo.Geodesy.destination mid ~bearing_deg:(45.0 *. float_of_int id)
               ~distance_km:2.0)
          ~height_m:100.0 ~source:Cisp_towers.Tower.Fcc)
  in
  {
    Cisp_towers.Hops.config = Cisp_towers.Hops.default_config;
    sites;
    towers;
    graph = Cisp_graph.Graph.create 10;
    n_sites = 2;
    feasible_hops = 0;
  }

let test_capacity_spare_per_registry () =
  (* Same tower and site counts, 2,000 km apart: each registry's spare
     estimate must come from its own towers, whichever is indexed
     first. *)
  let far = registry_around ~lat:30.0 ~lon:(-82.0) in
  let near = registry_around ~lat:40.0 ~lon:(-100.0) in
  let spare_far = Capacity.spare_from_registry far in
  let spare_near = Capacity.spare_from_registry near in
  Alcotest.(check int) "eight towers at the hop: two spare series" 2 (spare_near 0 1);
  Alcotest.(check int) "the other registry keeps its own towers" 2 (spare_far 0 1);
  Alcotest.(check int) "synthetic hops have no spares" 0 (spare_near (-1) (-2))

let test_cost_model () =
  let c = Cost.default in
  check_float 1e-6 "capex" (2.0 *. 150_000.0 +. 3.0 *. 100_000.0)
    (Cost.capex_usd c ~radios:2 ~new_towers:3);
  check_float 1e-6 "opex 5y" (10.0 *. 40_000.0 *. 5.0) (Cost.opex_usd c ~rented_towers:10);
  (* cost per GB: $1e9 over 100 Gbps x 5 years *)
  let gb = 100.0 /. 8.0 *. 5.0 *. Cisp_util.Units.seconds_per_year in
  check_float 1e-9 "per gb" (1e9 /. gb) (Cost.cost_per_gb c ~total_usd:1e9 ~aggregate_gbps:100.0)

let test_cost_per_gb_decreases_with_rate () =
  let t = Greedy.design inputs ~budget:60 in
  let cpg rate =
    let plan = Capacity.plan inputs t ~aggregate_gbps:rate in
    Capacity.cost_per_gb Cost.default plan ~aggregate_gbps:rate
  in
  Alcotest.(check bool) "economies of scale" true (cpg 400.0 < cpg 10.0)

let suites =
  [
    ( "design.inputs",
      [
        Alcotest.test_case "validate" `Quick test_inputs_validate;
        Alcotest.test_case "restrict" `Quick test_inputs_restrict;
        Alcotest.test_case "site count below 1" `Quick test_scenario_site_count;
      ] );
    ( "design.topology",
      [
        Alcotest.test_case "empty = fiber" `Quick test_topology_empty_is_fiber;
        Alcotest.test_case "add remove" `Quick test_topology_add_remove;
        Alcotest.test_case "full mesh stretch" `Quick test_topology_full_mesh_stretch;
        Alcotest.test_case "incremental metric exact" `Quick test_distances_incremental_exact;
        Alcotest.test_case "traffic weighting" `Quick test_stretch_weighted;
      ] );
    ( "design.greedy",
      [
        Alcotest.test_case "respects budget" `Quick test_greedy_respects_budget;
        Alcotest.test_case "monotone improvement" `Quick test_greedy_improves_monotonically;
        Alcotest.test_case "candidates beneficial" `Quick test_greedy_candidates_beneficial;
        Alcotest.test_case "zero budget" `Quick test_greedy_zero_budget;
        Alcotest.test_case "ordered prefix" `Quick test_greedy_ordered_prefix;
      ] );
    ( "design.ilp",
      [
        Alcotest.test_case "matches brute force" `Slow test_ilp_matches_brute_force;
        Alcotest.test_case "heuristic matches ilp" `Slow test_heuristic_matches_ilp;
        Alcotest.test_case "respects budget" `Quick test_ilp_respects_budget;
        Alcotest.test_case "lp rounding feasible" `Quick test_lp_rounding_feasible;
      ] );
    ( "design.local_search",
      [
        Alcotest.test_case "never worse" `Quick test_local_search_never_worse;
        Alcotest.test_case "fills budget" `Quick test_local_search_fills_budget;
      ] );
    ( "design.capacity",
      [
        Alcotest.test_case "route loads" `Quick test_route_loads_conserve;
        Alcotest.test_case "plan covers demand" `Quick test_capacity_plan_covers_demand;
        Alcotest.test_case "spare reduces new towers" `Quick test_capacity_spare_reduces_new_towers;
        Alcotest.test_case "spare index per registry" `Quick test_capacity_spare_per_registry;
        Alcotest.test_case "cost model" `Quick test_cost_model;
        Alcotest.test_case "economies of scale" `Quick test_cost_per_gb_decreases_with_rate;
        Alcotest.test_case "MW-fiber tie rides fiber" `Quick test_capacity_tie_rides_fiber;
        Alcotest.test_case "negative aggregate rejected" `Quick test_capacity_negative_aggregate;
      ] );
  ]

(* ---------- deeper properties ---------- *)

let prop_incremental_order_independent =
  QCheck.Test.make ~name:"metric closure independent of link addition order" ~count:40
    QCheck.small_int
    (fun seed ->
      let rng = Cisp_util.Rng.create seed in
      let pairs = Array.of_list (Greedy.candidates inputs) in
      Cisp_util.Rng.shuffle rng pairs;
      let chosen = Array.to_list (Array.sub pairs 0 (min 5 (Array.length pairs))) in
      let t1 = Topology.of_links inputs chosen in
      let t2 = Topology.of_links inputs (List.rev chosen) in
      let d1 = Topology.distances t1 and d2 = Topology.distances t2 in
      let ok = ref true in
      for s = 0 to 5 do
        for u = 0 to 5 do
          if Float.abs (d1.(s).(u) -. d2.(s).(u)) > 1e-9 then ok := false
        done
      done;
      !ok)

let prop_greedy_never_exceeds_budget =
  QCheck.Test.make ~name:"greedy within arbitrary budgets" ~count:60 QCheck.(int_range 0 300)
    (fun budget ->
      let t = Greedy.design inputs ~budget in
      t.Topology.cost <= budget)

let prop_stretch_at_least_one =
  QCheck.Test.make ~name:"stretch >= 1 for any link subset" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Cisp_util.Rng.create seed in
      let pairs = Array.of_list (Greedy.candidates inputs) in
      Cisp_util.Rng.shuffle rng pairs;
      let k = Cisp_util.Rng.int rng (Array.length pairs + 1) in
      let t = Topology.of_links inputs (Array.to_list (Array.sub pairs 0 k)) in
      Topology.stretch_of t >= 1.0 -. 1e-9)

let prop_more_links_never_hurt =
  QCheck.Test.make ~name:"adding a link never increases stretch" ~count:60 QCheck.small_int
    (fun seed ->
      let rng = Cisp_util.Rng.create seed in
      let pairs = Array.of_list (Greedy.candidates inputs) in
      Cisp_util.Rng.shuffle rng pairs;
      let k = Cisp_util.Rng.int rng (Array.length pairs) in
      let base_links = Array.to_list (Array.sub pairs 0 k) in
      let t = Topology.of_links inputs base_links in
      let t' = Topology.add t pairs.(k) in
      Topology.stretch_of t' <= Topology.stretch_of t +. 1e-9)

let deep_suite =
  ( "design.properties",
    [
      QCheck_alcotest.to_alcotest prop_incremental_order_independent;
      QCheck_alcotest.to_alcotest prop_greedy_never_exceeds_budget;
      QCheck_alcotest.to_alcotest prop_stretch_at_least_one;
      QCheck_alcotest.to_alcotest prop_more_links_never_hurt;
    ] )

let suites = suites @ [ deep_suite ]

(* ---------- Export ---------- *)

let test_export_geojson_wellformed () =
  let t = Greedy.design inputs ~budget:60 in
  let js = Export.topology_geojson inputs t in
  Alcotest.(check bool) "is a feature collection" true
    (String.length js > 50 && String.sub js 0 30 = {|{"type":"FeatureCollection","f|});
  (* one Point per site, one LineString per link *)
  let count needle hay =
    let n = String.length needle and h = String.length hay in
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  in
  Alcotest.(check int) "points" 6 (count {|"Point"|} js);
  Alcotest.(check int) "lines" (List.length t.Topology.built) (count {|"LineString"|} js);
  (* balanced braces as a cheap well-formedness proxy *)
  Alcotest.(check int) "balanced braces" (count "{" js) (count "}" js)

let test_export_with_plan () =
  let t = Greedy.design inputs ~budget:60 in
  let plan = Capacity.plan inputs t ~aggregate_gbps:50.0 in
  let js = Export.topology_with_plan_geojson inputs t plan in
  Alcotest.(check bool) "series annotated" true
    (String.length js > 0
    && (let found = ref false in
        String.iteri
          (fun i _ ->
            if i + 9 <= String.length js && String.sub js i 9 = {|"series":|} then found := true)
          js;
        !found))

let test_export_budget_evolution () =
  let steps =
    Export.budget_evolution inputs ~budgets:[ 20; 40; 60 ]
      ~design:(fun inputs ~budget -> Greedy.design inputs ~budget)
  in
  Alcotest.(check int) "three frames" 3 (List.length steps);
  let links = List.map (fun (_, t, _) -> List.length t.Topology.built) steps in
  Alcotest.(check bool) "network grows with budget" true
    (List.sort compare links = links)

(* Test-local inverse of Export.json_escape, over the full escape
   vocabulary (named short escapes plus \u00XX). *)
let json_unescape s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] <> '\\' then Buffer.add_char b s.[!i]
     else begin
       incr i;
       match s.[!i] with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | 'n' -> Buffer.add_char b '\n'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'r' -> Buffer.add_char b '\r'
       | 't' -> Buffer.add_char b '\t'
       | 'u' ->
         Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (!i + 1) 4)));
         i := !i + 4
       | c -> Alcotest.failf "unexpected escape \\%c" c
     end);
    incr i
  done;
  Buffer.contents b

let test_export_json_escape_roundtrip () =
  (* Every byte below 0x20, plus the named cases, round-trips; the
     escaped form never contains a raw control character or bare
     quote (RFC 8259). *)
  let control = String.init 0x20 Char.chr in
  let cases =
    [ "plain"; "quote\"backslash\\"; "tab\there\nnewline"; control;
      "S\xc3\xa3o Paulo" (* multibyte UTF-8 passes through untouched *) ]
  in
  List.iter
    (fun s ->
      let e = Export.json_escape s in
      String.iter
        (fun c ->
          Alcotest.(check bool) "no raw control char in escaped form" true
            (Char.code c >= 0x20))
        e;
      String.iteri
        (fun i c ->
          if c = '"' then
            Alcotest.(check bool) "every quote is escaped" true
              (i > 0 && e.[i - 1] = '\\'))
        e;
      Alcotest.(check string) (Printf.sprintf "round-trips %S" s) s (json_unescape e))
    cases

let export_suite =
  ( "design.export",
    [
      Alcotest.test_case "geojson wellformed" `Quick test_export_geojson_wellformed;
      Alcotest.test_case "plan annotation" `Quick test_export_with_plan;
      Alcotest.test_case "budget evolution" `Quick test_export_budget_evolution;
      Alcotest.test_case "json escape round-trip" `Quick test_export_json_escape_roundtrip;
    ] )

let suites = suites @ [ export_suite ]
