open Cisp_towers

let coord = Cisp_geo.Coord.make

(* Small deterministic fixture: a flat region with a handful of sites. *)
let dem = Cisp_terrain.Dem.create ~seed:3 Cisp_terrain.Dem.Flat
let cache = Cisp_terrain.Dem_cache.create dem

let sites =
  [
    Cisp_data.City.make "Alpha" ~lat:40.0 ~lon:(-100.0) ~population:1_000_000;
    Cisp_data.City.make "Beta" ~lat:40.0 ~lon:(-97.0) ~population:600_000;
    Cisp_data.City.make "Gamma" ~lat:41.5 ~lon:(-98.5) ~population:400_000;
  ]

let towers = Synth.generate ~dem ~sites ()
let culled = Culling.apply towers

let test_synth_nonempty_deterministic () =
  Alcotest.(check bool) "generated towers" true (List.length towers > 50);
  let again = Synth.generate ~dem ~sites () in
  Alcotest.(check int) "deterministic count" (List.length towers) (List.length again);
  let ids = List.map (fun (t : Tower.t) -> t.id) towers in
  Alcotest.(check int) "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_synth_heights_in_range () =
  List.iter
    (fun (t : Tower.t) ->
      Alcotest.(check bool) "height in [50, 350]" true (t.height_m >= 50.0 && t.height_m <= 350.0))
    towers

let test_culling_fcc_height () =
  List.iter
    (fun (t : Tower.t) ->
      match t.source with
      | Tower.Fcc -> Alcotest.(check bool) "fcc over 100m" true (t.height_m >= 100.0)
      | Tower.Rental | Tower.City -> ())
    culled

let test_culling_cell_cap () =
  let cells = Hashtbl.create 64 in
  List.iter
    (fun (t : Tower.t) ->
      let key =
        ( int_of_float (Float.floor (Cisp_geo.Coord.lat t.position /. 0.5)),
          int_of_float (Float.floor (Cisp_geo.Coord.lon t.position /. 0.5)) )
      in
      Hashtbl.replace cells key (1 + Option.value (Hashtbl.find_opt cells key) ~default:0))
    culled;
  Hashtbl.iter
    (fun _ count -> Alcotest.(check bool) "cell under cap" true (count <= 50))
    cells

let test_culling_subset () =
  let ids = List.map (fun (t : Tower.t) -> t.id) towers in
  List.iter
    (fun (t : Tower.t) ->
      Alcotest.(check bool) "culled is subset" true (List.mem t.id ids))
    culled

(* Lazy so the candidate listing runs inside the first test that
   needs it, not at module init of every run of the test binary. *)
let hops = lazy (Hops.build ~cache ~sites ~towers:culled ())
let links = lazy (Hops.all_links (Lazy.force hops))

let test_hops_graph_shape () =
  let hops = Lazy.force hops in
  let graph = Hops.force_graph hops in
  Alcotest.(check int) "site nodes first" 3 hops.n_sites;
  Alcotest.(check bool) "has feasible hops" true (hops.feasible_hops > 0);
  Alcotest.(check int) "graph size" (3 + List.length culled)
    (Cisp_graph.Graph.node_count graph)

let test_hops_link_properties () =
  match (Lazy.force links).(0).(1) with
  | None -> Alcotest.fail "Alpha-Beta should connect (flat terrain, 255km)"
  | Some l ->
    let stretch = l.distance_km /. l.geodesic_km in
    Alcotest.(check bool) "positive distance" true (l.distance_km > 0.0);
    Alcotest.(check bool) "stretch >= 1" true (stretch >= 1.0);
    Alcotest.(check bool) "reasonable stretch" true (stretch < 1.6);
    Alcotest.(check bool) "has towers" true (l.tower_count > 0);
    (* path endpoints are the sites *)
    (match l.node_path with
    | first :: _ -> Alcotest.(check int) "starts at src" 0 first
    | [] -> Alcotest.fail "empty path");
    Alcotest.(check int) "ends at dst" 1 (List.nth l.node_path (List.length l.node_path - 1));
    (* Tower-tower hops lie in the fixture's LOS range window and
       site-tower hops within the 40 km attach radius; the hop lengths
       add up to the link's length. *)
    let h = Lazy.force hops in
    let range = h.config.los_params in
    let total =
      List.fold_left
        (fun acc (u, v) ->
          let d =
            Cisp_geo.Geodesy.distance_km (Hops.node_position h u) (Hops.node_position h v)
          in
          if Hops.is_tower_node h u && Hops.is_tower_node h v then
            Alcotest.(check bool)
              (Printf.sprintf "tower hop %.2f km in range" d)
              true
              (d >= range.Cisp_rf.Los.min_range_km && d <= range.Cisp_rf.Los.max_range_km)
          else
            Alcotest.(check bool) (Printf.sprintf "site hop %.2f km attached" d) true (d <= 40.0);
          acc +. d)
        0.0 (Hops.hops_of_link l)
    in
    Alcotest.(check (float 1e-6)) "hops sum to distance" l.distance_km total;
    Alcotest.(check int) "hops = path - 1" (List.length l.node_path - 1)
      (List.length (Hops.hops_of_link l))

let test_hops_symmetry () =
  let m = Lazy.force links in
  match (m.(0).(1), m.(1).(0)) with
  | Some a, Some b ->
    Alcotest.(check (float 1e-6)) "symmetric distance" a.distance_km b.distance_km
  | _ -> Alcotest.fail "both directions should exist"

let test_all_links_matrix () =
  let m = Lazy.force links in
  Alcotest.(check bool) "diagonal none" true (m.(0).(0) = None);
  (match m.(0).(1) with
  | Some l -> Alcotest.(check int) "src recorded" 0 l.src
  | None -> Alcotest.fail "missing 0-1");
  match (m.(0).(2), m.(2).(0)) with
  | Some a, Some b -> Alcotest.(check (float 1e-6)) "matrix symmetric" a.distance_km b.distance_km
  | _ -> Alcotest.fail "missing 0-2"

(* Every verdict forced: the feasible-hop count is the whole
   graph's. *)
let forced h =
  ignore (Hops.force_graph h);
  h

let forced_build ~config = forced (Hops.build ~config ~cache ~sites ~towers:culled ())

let test_height_fraction_reduces_feasibility () =
  let hops = forced (Lazy.force hops) in
  let restricted = forced_build ~config:{ Hops.default_config with height_fraction = 0.45 } in
  Alcotest.(check bool)
    (Printf.sprintf "fewer hops with 0.45 height (%d vs %d)" restricted.feasible_hops
       hops.feasible_hops)
    true
    (restricted.feasible_hops < hops.feasible_hops)

let test_shorter_range_reduces_feasibility () =
  let hops = forced (Lazy.force hops) in
  let restricted =
    forced_build
      ~config:
        {
          Hops.default_config with
          los_params = { Cisp_rf.Los.default_params with max_range_km = 60.0 };
        }
  in
  Alcotest.(check bool) "fewer hops with 60km range" true
    (restricted.feasible_hops < hops.feasible_hops)

(* A link matrix with every float by its bits. *)
let link_bits m =
  Array.map
    (Array.map
       (Option.map (fun (l : Hops.link) ->
            ( l.src,
              l.dst,
              Int64.bits_of_float l.distance_km,
              Int64.bits_of_float l.geodesic_km,
              l.node_path,
              l.tower_count ))))
    m

(* [all_links] on a fresh build, which tests only the edges on the
   paths it returns, must equal [all_links] once every verdict is
   forced, when the search is one Dijkstra over the forced graph; and
   a second call on the fresh build must return the same matrix.
   [other] is a build of the same inputs, forced after [fresh] is
   searched; it may be [fresh] itself. *)
let check_lazy_equals_forced label fresh other =
  let first = link_bits (Hops.all_links fresh) in
  let second = link_bits (Hops.all_links fresh) in
  Alcotest.(check bool) (label ^ ": second call, same matrix") true (first = second);
  let other = forced other in
  Alcotest.(check bool) (label ^ ": lazy equals forced") true
    (first = link_bits (Hops.all_links other))

let test_lazy_equals_forced () =
  check_lazy_equals_forced "towers fixture"
    (Hops.build ~cache ~sites ~towers:culled ())
    (Lazy.force hops);
  let a =
    Cisp_design.Scenario.artifacts
      ~config:{ Cisp_design.Scenario.europe_config with n_sites = Some 8 }
      ()
  in
  let europe8 =
    Hops.build ~config:a.hops.config ~cache:a.cache ~sites:(Array.to_list a.sites)
      ~towers:a.towers ()
  in
  check_lazy_equals_forced "Europe-8 fixture" europe8 europe8

(* Fig 4(b)'s tower-disjoint rounds on the forced graph: each round
   removes every edge at a tower the path it found used.  Each round's
   length (by its bits) and node path, pinned: the one golden on a
   [force_graph] reader besides the hop-graph fingerprint. *)
let test_fig4b_disjoint_golden () =
  let module G = Cisp_graph.Graph in
  let h = Lazy.force hops in
  let remove (work : G.t) edges =
    let remove_at v =
      if Hops.is_tower_node h v then
        for a = work.first.(v) to work.first.(v + 1) - 1 do
          G.remove work work.arc_edge.(a)
        done
    in
    List.iter
      (fun e ->
        remove_at work.edge_u.(e);
        remove_at work.edge_v.(e))
      edges
  in
  let rounds =
    Cisp_graph.Multipath.successive (Hops.force_graph h) ~src:0 ~dst:1 ~k:8 ~remove
  in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (d, path) ->
      Printf.bprintf buf "%Ld %s\n" (Int64.bits_of_float d)
        (String.concat " " (List.map string_of_int path)))
    rounds;
  Alcotest.(check string) "rounds" "76a1528128086b70492f8b6154f28aa2"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_usable_height () =
  let t = Tower.make ~id:0 ~position:(coord ~lat:40.0 ~lon:(-100.0)) ~height_m:200.0 ~source:Tower.Fcc in
  Alcotest.(check (float 1e-9)) "fraction" 130.0 (Tower.usable_height_m t ~fraction:0.65)

let suites =
  [
    ( "towers.synth",
      [
        Alcotest.test_case "nonempty deterministic" `Quick test_synth_nonempty_deterministic;
        Alcotest.test_case "heights in range" `Quick test_synth_heights_in_range;
      ] );
    ( "towers.culling",
      [
        Alcotest.test_case "fcc height filter" `Quick test_culling_fcc_height;
        Alcotest.test_case "cell cap" `Quick test_culling_cell_cap;
        Alcotest.test_case "subset" `Quick test_culling_subset;
      ] );
    ( "towers.hops",
      [
        Alcotest.test_case "graph shape" `Quick test_hops_graph_shape;
        Alcotest.test_case "link properties" `Quick test_hops_link_properties;
        Alcotest.test_case "symmetry" `Quick test_hops_symmetry;
        Alcotest.test_case "all links matrix" `Quick test_all_links_matrix;
        Alcotest.test_case "height fraction restricts" `Quick test_height_fraction_reduces_feasibility;
        Alcotest.test_case "range restricts" `Quick test_shorter_range_reduces_feasibility;
        Alcotest.test_case "lazy equals forced" `Quick test_lazy_equals_forced;
        Alcotest.test_case "fig 4b disjoint golden" `Quick test_fig4b_disjoint_golden;
        Alcotest.test_case "usable height" `Quick test_usable_height;
      ] );
  ]

(* ---------- Refine (paper section 6.5) ---------- *)

let refine_session () =
  Refine.create ~hops:(Lazy.force hops) ~src:0 ~dst:1

let test_refine_prior_viable () =
  let s = Refine.stats ~samples:60 (refine_session ()) in
  Alcotest.(check bool)
    (Printf.sprintf "viability %.2f > 0.5" s.Refine.viability)
    true (s.Refine.viability > 0.5);
  Alcotest.(check bool) "several distinct paths" true (s.Refine.distinct_paths >= 2);
  Alcotest.(check bool) "p95 >= p50" true (s.Refine.length_p95_km >= s.Refine.length_p50_km)

let test_refine_sample_paths_sorted () =
  let paths = Refine.sample_paths ~samples:60 (refine_session ()) in
  Alcotest.(check bool) "found paths" true (paths <> []);
  let ds = List.map fst paths in
  Alcotest.(check bool) "sorted" true (List.sort Float.compare ds = ds);
  (* Paths run site-to-site: first and last markers are the sites. *)
  List.iter
    (fun (_, p) ->
      Alcotest.(check int) "starts at src marker" (-1) (List.hd p);
      Alcotest.(check int) "ends at dst marker" (-2) (List.nth p (List.length p - 1)))
    paths

let test_refine_rejection_shrinks_viability () =
  let base = Refine.stats ~samples:60 (refine_session ()) in
  let s = refine_session () in
  (* Reject every tower used by the best prior path. *)
  (match Refine.sample_paths ~samples:60 s with
  | (_, best) :: _ ->
    List.iter (fun t -> if t >= 0 then Refine.confirm s ~tower:t Refine.Rejected) best
  | [] -> ());
  let after = Refine.stats ~samples:60 s in
  Alcotest.(check bool) "viability does not grow" true
    (after.Refine.viability <= base.Refine.viability +. 0.15)

let test_refine_committed_path () =
  let s = refine_session () in
  Alcotest.(check bool) "nothing committed initially" true (Refine.committed_path s = None);
  (match Refine.sample_paths ~samples:60 s with
  | (_, best) :: _ ->
    List.iter (fun t -> if t >= 0 then Refine.confirm s ~tower:t (Refine.Acquired 1.0)) best;
    (match Refine.committed_path s with
    | Some (d, _) -> Alcotest.(check bool) "committed has length" true (d > 0.0)
    | None -> Alcotest.fail "expected committed path after confirming")
  | [] -> Alcotest.fail "expected prior paths")

let test_refine_deterministic () =
  let a = Refine.sample_paths ~samples:40 (refine_session ()) in
  let b = Refine.sample_paths ~samples:40 (refine_session ()) in
  Alcotest.(check int) "same path count" (List.length a) (List.length b);
  (* The sampled paths and the prior statistics on this fixture, floats
     by their bits. *)
  let buf = Buffer.create 4096 in
  List.iter
    (fun (d, path) ->
      Printf.bprintf buf "%Ld %s\n" (Int64.bits_of_float d)
        (String.concat " " (List.map string_of_int path)))
    a;
  let s = Refine.stats ~samples:60 (refine_session ()) in
  Printf.bprintf buf "%Ld %Ld %Ld %d\n" (Int64.bits_of_float s.Refine.viability)
    (Int64.bits_of_float s.Refine.length_p50_km) (Int64.bits_of_float s.Refine.length_p95_km)
    s.Refine.distinct_paths;
  Alcotest.(check string) "paths and stats" "8387d5a46f04bd787d7be7794ef7d095" (Digest.to_hex (Digest.string (Buffer.contents buf)))

let refine_suite =
  ( "towers.refine",
    [
      Alcotest.test_case "prior viable" `Quick test_refine_prior_viable;
      Alcotest.test_case "sample paths sorted" `Quick test_refine_sample_paths_sorted;
      Alcotest.test_case "rejection shrinks viability" `Quick test_refine_rejection_shrinks_viability;
      Alcotest.test_case "committed path" `Quick test_refine_committed_path;
      Alcotest.test_case "deterministic" `Quick test_refine_deterministic;
    ] )

let suites = suites @ [ refine_suite ]
