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

(* Golden of the swap path: [Scenario.design]'s three steps on a
   seeded 40-site instance where local search trades seed links for
   better ones.  The MD5 covers the built pairs in construction order,
   the cost and the stretch bits. *)
let test_local_search_swap_golden () =
  let n = 40 in
  let rng = Cisp_util.Rng.create 9 in
  let sites =
    Array.init n (fun i ->
        let lat = Cisp_util.Rng.uniform rng 30.0 46.0 in
        let lon = Cisp_util.Rng.uniform rng (-122.0) (-72.0) in
        let population = 50_000 + Cisp_util.Rng.int rng 5_000_000 in
        Cisp_data.City.make (Printf.sprintf "W%d" i) ~lat ~lon ~population)
  in
  let inp =
    Inputs.synthetic ~sites ~mw_stretch:1.02 ~mw_cost_per_km:0.02 ~fiber_stretch:1.9
      ~traffic:(Cisp_traffic.Matrix.population_product sites)
  in
  let budget = 27 * n in
  let _, order = Greedy.design_ordered inp ~budget:(2 * budget) in
  let seed =
    List.fold_left
      (fun topo (i, j) ->
        if topo.Topology.cost + Topology.link_cost inp i j <= budget then Topology.add topo (i, j)
        else topo)
      (Topology.empty inp) order
  in
  let t = Local_search.improve inp ~budget ~candidates:order seed in
  let removed =
    List.filter (fun (i, j) -> not (Topology.is_built t i j)) seed.Topology.built
  in
  Alcotest.(check bool) "a seed link swapped out" true (removed <> []);
  Alcotest.(check bool) "within budget" true (t.Topology.cost <= budget);
  let b = Buffer.create 1024 in
  List.iter (fun (i, j) -> Buffer.add_string b (Printf.sprintf "%d-%d;" i j)) t.Topology.built;
  Buffer.add_string b
    (Printf.sprintf "cost=%d;stretch=%Ld" t.Topology.cost
       (Int64.bits_of_float (Topology.stretch_of t)));
  Alcotest.(check string) "swap golden" "460662e7a2b1b39ac3183d166f443f1a"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

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
  let s0 = site 0 and s1 = site 1 in
  let mid = Cisp_geo.Geodesy.midpoint s0.Cisp_data.City.coord s1.Cisp_data.City.coord in
  let towers =
    List.init 8 (fun id ->
        Cisp_towers.Tower.make ~id
          ~position:
            (Cisp_geo.Geodesy.destination mid ~bearing_deg:(45.0 *. float_of_int id)
               ~distance_km:2.0)
          ~height_m:100.0 ~source:Cisp_towers.Tower.Fcc)
  in
  let cache = Cisp_terrain.Dem_cache.create (Cisp_terrain.Dem.create ~seed:3 Cisp_terrain.Dem.Flat) in
  Cisp_towers.Hops.build ~cache ~sites:[ s0; s1 ] ~towers ()

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
        Alcotest.test_case "swap path golden" `Quick test_local_search_swap_golden;
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
      Alcotest.test_case "json escape round-trip" `Quick test_export_json_escape_roundtrip;
    ] )

let suites = suites @ [ export_suite ]

(* ---------- The pipeline on the 8-site Europe fixture ---------- *)

(* The determinism suite's fixture: [Scenario.artifacts] memoizes it,
   so both suites share one build. *)
let europe8 = { Scenario.europe_config with Scenario.n_sites = Some 8 }
let europe8_artifacts = lazy (Scenario.artifacts ~config:europe8 ())
let europe8_inputs = lazy (Scenario.population_inputs (Lazy.force europe8_artifacts))

(* With nothing built every pair rides fiber, assumed in Europe at
   1.93x geodesic (paper §6.2). *)
let fiber_only_stretch = 1.93

let test_stretch_monotone_in_budget () =
  (* Fig 4(a): stretch falls as the budget grows, from the fiber-only
     1.93 at budget 0. *)
  let inputs = Lazy.force europe8_inputs in
  let stretch budget = Topology.stretch_of (Scenario.design inputs ~budget) in
  let s0 = stretch 0 in
  check_float 1e-9 "budget 0 is fiber only" fiber_only_stretch s0;
  ignore
    (List.fold_left
       (fun (prev_budget, prev) budget ->
         let s = stretch budget in
         Alcotest.(check bool)
           (Printf.sprintf "stretch %.6f at budget %d <= %.6f at %d" s budget prev prev_budget)
           true (s <= prev);
         (budget, s))
       (0, s0)
       [ 15; 30; 45; 60; 90; 120; 180; 240; 480 ])

let test_stretch_70km_tracks_100km () =
  (* Fig 4(a)'s other half: with 70 km hops stretch also never rises
     with budget, never drops below the 100 km stretch at the same
     budget, and ends close to it. *)
  let stretch inputs budget = Topology.stretch_of (Scenario.design inputs ~budget) in
  let inputs100 = Lazy.force europe8_inputs in
  let inputs70 =
    Scenario.population_inputs
      (Scenario.artifacts ~config:{ europe8 with Scenario.max_range_km = 70.0 } ())
  in
  let last =
    List.fold_left
      (fun prev budget ->
        let s70 = stretch inputs70 budget and s100 = stretch inputs100 budget in
        (match prev with
        | Some (prev_budget, prev70) ->
          Alcotest.(check bool)
            (Printf.sprintf "70 km: stretch %.6f at budget %d <= %.6f at %d" s70 budget prev70
               prev_budget)
            true (s70 <= prev70)
        | None -> ());
        Alcotest.(check bool)
          (Printf.sprintf "budget %d: 70 km stretch %.6f >= 100 km %.6f" budget s70 s100)
          true (s70 >= s100);
        Some (budget, s70))
      None
      (List.init 33 (fun k -> 15 * k))
  in
  match last with
  | Some (budget, s70) ->
    check_float 0.01 (Printf.sprintf "budget %d: 70 km ends near 100 km" budget)
      (stretch inputs100 budget) s70
  | None -> Alcotest.fail "no budget"

(* What every degenerate design input must give: no exception, a
   finite stretch >= 1 and a finite cost/GB >= 0. *)
let check_defined label ~stretch ~cost_per_gb =
  Alcotest.(check bool) (label ^ ": finite stretch >= 1") true
    (Float.is_finite stretch && stretch >= 1.0);
  Alcotest.(check bool) (label ^ ": finite cost/GB >= 0") true
    (Float.is_finite cost_per_gb && cost_per_gb >= 0.0)

(* Nothing is built: every pair rides fiber and no radio is bought. *)
let check_fiber_only label (r : Scenario.report) =
  check_defined label ~stretch:r.Scenario.stretch ~cost_per_gb:r.Scenario.cost_per_gb;
  Alcotest.(check int) (label ^ ": no link built") 0 (List.length r.Scenario.topology.Topology.built);
  check_float 1e-9 (label ^ ": fiber-only stretch") fiber_only_stretch r.Scenario.stretch;
  check_float 0.0 (label ^ ": nothing to pay for") 0.0 r.Scenario.cost_per_gb

let test_degenerate_budget () =
  List.iter
    (fun budget ->
      check_fiber_only
        (Printf.sprintf "budget %d" budget)
        (Scenario.full_run ~config:europe8 ~budget ~aggregate_gbps:100.0 ()))
    [ 0; -5 ]

let test_degenerate_short_range () =
  (* A hop range below Los's minimum hop length: no tower pair is in
     range, so no MW link exists. *)
  let config = { europe8 with Scenario.max_range_km = 0.5 } in
  let hops = (Scenario.artifacts ~config ()).Scenario.hops in
  ignore (Cisp_towers.Hops.force_graph hops);
  Alcotest.(check int) "no feasible hop" 0 hops.Cisp_towers.Hops.feasible_hops;
  check_fiber_only "range 0.5 km" (Scenario.full_run ~config ~budget:120 ~aggregate_gbps:100.0 ())

let test_degenerate_everything_culled () =
  let a = Lazy.force europe8_artifacts in
  let hops =
    Cisp_towers.Hops.build ~cache:a.Scenario.cache ~sites:(Array.to_list a.Scenario.sites)
      ~towers:[] ()
  in
  let inputs =
    Inputs.of_hops ~hops ~fiber:a.Scenario.fiber
      ~traffic:(Cisp_traffic.Matrix.population_product a.Scenario.sites)
  in
  let topology = Scenario.design inputs ~budget:120 in
  let plan = Capacity.plan inputs topology ~aggregate_gbps:100.0 in
  check_fiber_only "no towers"
    {
      Scenario.topology;
      stretch = Topology.stretch_of topology;
      plan;
      cost_per_gb = Capacity.cost_per_gb Cost.default plan ~aggregate_gbps:100.0;
    }

let test_degenerate_disconnected_regions () =
  (* Two site pairs 4,400 km apart: Seattle-Tacoma and Miami-Fort
     Lauderdale.  Only the pairs within a region can be linked. *)
  let city name lat lon population = Cisp_data.City.make name ~lat ~lon ~population in
  let sites =
    [
      city "Seattle" 47.6 (-122.3) 750_000;
      city "Tacoma" 47.2 (-122.4) 220_000;
      city "Miami" 25.8 (-80.2) 450_000;
      city "Fort Lauderdale" 26.1 (-80.1) 180_000;
    ]
  in
  let config =
    { Scenario.default_config with Scenario.region = Scenario.Custom ("disconnected", sites) }
  in
  let r = Scenario.full_run ~config ~budget:60 ~aggregate_gbps:100.0 () in
  let mw_links = (Scenario.population_inputs (Scenario.artifacts ~config ())).Inputs.mw_links in
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool) (Printf.sprintf "no MW link %d-%d" i j) true (mw_links.(i).(j) = None))
    [ (0, 2); (0, 3); (1, 2); (1, 3) ];
  check_defined "two regions" ~stretch:r.Scenario.stretch ~cost_per_gb:r.Scenario.cost_per_gb;
  Alcotest.(check (list (pair int int))) "one link inside each region" [ (0, 1); (2, 3) ]
    (List.sort compare r.Scenario.topology.Topology.built)

(* A random small instance: 0-6 sites, all co-located half the time,
   any budget from -5 up and any MW/fiber stretch and MW cost. *)
type degenerate = {
  sites : (float * float * int) list;  (** lat, lon, population *)
  budget : int;
  mw_stretch : float;
  fiber_stretch : float;
  mw_cost_per_km : float;
  aggregate_gbps : float;
}

let degenerate_gen =
  let open QCheck.Gen in
  let site =
    triple (float_range 30.0 48.0) (float_range (-120.0) (-75.0)) (int_range 1 1_000_000)
  in
  let* n = int_range 0 6 in
  let* colocated = bool in
  let* spread = list_repeat n site in
  let sites =
    match spread with
    | (lat, lon, _) :: _ when colocated -> List.map (fun (_, _, pop) -> (lat, lon, pop)) spread
    | _ -> spread
  in
  let* budget = int_range (-5) 200 in
  let* mw_stretch = float_range 1.0 2.5 in
  let* fiber_stretch = float_range 1.0 2.0 in
  let* mw_cost_per_km = float_range 0.0 0.05 in
  let* aggregate_gbps = float_range 1.0 100.0 in
  return { sites; budget; mw_stretch; fiber_stretch; mw_cost_per_km; aggregate_gbps }

let print_degenerate d =
  Printf.sprintf "sites [%s], budget %d, MW x%h, fiber x%h, %h towers/km, %h Gbps"
    (String.concat "; "
       (List.map (fun (lat, lon, pop) -> Printf.sprintf "(%h, %h, %d)" lat lon pop) d.sites))
    d.budget d.mw_stretch d.fiber_stretch d.mw_cost_per_km d.aggregate_gbps

(* Design, stretch, capacity plan and cost/GB on any such instance:
   nothing but [Invalid_argument] is raised, and every result is
   defined (cost/GB is [infinity] only at 0 Gbps, which is not
   drawn). *)
let prop_degenerate_defined =
  QCheck.Test.make ~name:"random degenerate instances are defined" ~count:200
    (QCheck.make ~print:print_degenerate degenerate_gen)
    (fun d ->
      let sites =
        Array.of_list
          (List.mapi
             (fun i (lat, lon, population) ->
               Cisp_data.City.make (Printf.sprintf "S%d" i) ~lat ~lon ~population)
             d.sites)
      in
      match
        let inputs =
          Inputs.synthetic ~sites ~mw_stretch:d.mw_stretch ~mw_cost_per_km:d.mw_cost_per_km
            ~fiber_stretch:d.fiber_stretch
            ~traffic:(Cisp_traffic.Matrix.population_product sites)
        in
        let topology = Scenario.design inputs ~budget:d.budget in
        let plan = Capacity.plan inputs topology ~aggregate_gbps:d.aggregate_gbps in
        ( Topology.stretch_of topology,
          plan.Capacity.mw_carried_fraction,
          Capacity.cost_per_gb Cost.default plan ~aggregate_gbps:d.aggregate_gbps )
      with
      | exception Invalid_argument _ -> true
      | stretch, mw_fraction, cost_per_gb ->
        Float.is_finite stretch && stretch >= 1.0
        && Float.is_finite cost_per_gb && cost_per_gb >= 0.0
        && mw_fraction >= 0.0 && mw_fraction <= 1.0)

let scenario_suite =
  ( "design.scenario",
    [
      Alcotest.test_case "fig 4a stretch monotone in budget" `Quick test_stretch_monotone_in_budget;
      Alcotest.test_case "fig 4a 70 km tracks 100 km" `Quick test_stretch_70km_tracks_100km;
      Alcotest.test_case "zero and negative budget" `Quick test_degenerate_budget;
      Alcotest.test_case "range below min_range_km" `Quick test_degenerate_short_range;
      Alcotest.test_case "everything culled" `Quick test_degenerate_everything_culled;
      Alcotest.test_case "regions with no MW between them" `Quick test_degenerate_disconnected_regions;
      QCheck_alcotest.to_alcotest prop_degenerate_defined;
    ] )

let suites = suites @ [ scenario_suite ]
