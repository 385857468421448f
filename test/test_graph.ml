open Cisp_graph

let check_float eps = Alcotest.(check (float eps))

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (k, _) ->
      out := k :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.0))) "sorted" [ 5.0; 4.0; 3.0; 2.0; 1.0 ] !out

let test_heap_peek_clear () =
  let h = Heap.create ~capacity:1 () in
  Heap.push h 2.0 "b";
  Heap.push h 1.0 "a";
  (match Heap.peek h with
  | Some (k, v) ->
    check_float 0.0 "peek key" 1.0 k;
    Alcotest.(check string) "peek value" "a" v
  | None -> Alcotest.fail "expected peek");
  Alcotest.(check int) "length" 2 (Heap.length h);
  Heap.clear h;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_range 0.0 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k ()) keys;
      let rec drain acc =
        match Heap.pop h with Some (k, ()) -> drain (k :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort Float.compare keys)

(* ---------- Graph / Dijkstra ---------- *)

(*   0 --1-- 1 --1-- 2
     |               |
     +------10-------+   *)
let diamond () =
  let g = Graph.create 3 in
  Graph.add_undirected g 0 1 1.0;
  Graph.add_undirected g 1 2 1.0;
  Graph.add_undirected g 0 2 10.0;
  g

let test_dijkstra_basic () =
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  check_float 1e-9 "dist 0->2" 2.0 r.dist.(2);
  Alcotest.(check (list int)) "path" [ 0; 1; 2 ] (Dijkstra.path r ~dst:2)

let test_dijkstra_unreachable () =
  let g = Graph.create 3 in
  Graph.add_undirected g 0 1 1.0;
  let r = Dijkstra.run g ~src:0 in
  Alcotest.(check bool) "unreachable" true (r.dist.(2) = infinity);
  Alcotest.(check (list int)) "no path" [] (Dijkstra.path r ~dst:2);
  Alcotest.(check bool) "distance none" true (Dijkstra.distance g ~src:0 ~dst:2 = None)

let test_dijkstra_early_exit () =
  let g = diamond () in
  match Dijkstra.shortest_path g ~src:0 ~dst:2 with
  | Some (d, path) ->
    check_float 1e-9 "dist" 2.0 d;
    Alcotest.(check (list int)) "path" [ 0; 1; 2 ] path
  | None -> Alcotest.fail "expected path"

let test_all_pairs () =
  let g = diamond () in
  let d = Dijkstra.all_pairs g in
  check_float 1e-9 "0->2" 2.0 d.(0).(2);
  check_float 1e-9 "2->0" 2.0 d.(2).(0);
  check_float 1e-9 "diag" 0.0 d.(1).(1)

let test_graph_remove_edges () =
  let g = diamond () in
  Graph.remove_edges g (fun u e -> not ((u = 0 && e.Graph.dst = 1) || (u = 1 && e.Graph.dst = 0)));
  let r = Dijkstra.run g ~src:0 in
  check_float 1e-9 "reroutes over long edge" 10.0 r.dist.(2)

let test_graph_tags () =
  let g = Graph.create 2 in
  Graph.add_edge ~tag:42 g 0 1 1.0;
  match Graph.succ g 0 with
  | [ e ] -> Alcotest.(check int) "tag" 42 e.Graph.tag
  | _ -> Alcotest.fail "expected one edge"

(* Random graph: dijkstra distance <= length of any sampled random walk. *)
let prop_dijkstra_lower_bound =
  QCheck.Test.make ~name:"dijkstra is a lower bound over random walks" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Cisp_util.Rng.create seed in
      let n = 12 in
      let g = Graph.create n in
      for _ = 1 to 30 do
        let u = Cisp_util.Rng.int rng n and v = Cisp_util.Rng.int rng n in
        if u <> v then Graph.add_undirected g u v (Cisp_util.Rng.uniform rng 1.0 10.0)
      done;
      let r = Dijkstra.run g ~src:0 in
      (* random walk from 0 of up to 8 steps *)
      let rec walk u len steps =
        if steps = 0 then true
        else begin
          match Graph.succ g u with
          | [] -> true
          | edges ->
            let e = List.nth edges (Cisp_util.Rng.int rng (List.length edges)) in
            let len = len +. e.Graph.weight in
            r.dist.(e.Graph.dst) <= len +. 1e-9 && walk e.Graph.dst len (steps - 1)
        end
      in
      walk 0 0.0 8)

(* ---------- K-shortest ---------- *)

let test_yen_basic () =
  let g = diamond () in
  let paths = Kshortest.yen g ~src:0 ~dst:2 ~k:3 in
  Alcotest.(check int) "two distinct paths" 2 (List.length paths);
  (match paths with
  | (d1, p1) :: (d2, p2) :: _ ->
    check_float 1e-9 "first" 2.0 d1;
    Alcotest.(check (list int)) "first path" [ 0; 1; 2 ] p1;
    check_float 1e-9 "second" 10.0 d2;
    Alcotest.(check (list int)) "second path" [ 0; 2 ] p2
  | _ -> Alcotest.fail "expected 2 paths");
  ()

let test_yen_sorted_distinct () =
  let g = Graph.create 5 in
  Graph.add_undirected g 0 1 1.0;
  Graph.add_undirected g 1 4 1.0;
  Graph.add_undirected g 0 2 1.5;
  Graph.add_undirected g 2 4 1.5;
  Graph.add_undirected g 0 3 2.0;
  Graph.add_undirected g 3 4 2.5;
  let paths = Kshortest.yen g ~src:0 ~dst:4 ~k:5 in
  let ds = List.map fst paths in
  Alcotest.(check bool) "sorted" true (List.sort Float.compare ds = ds);
  let ps = List.map snd paths in
  Alcotest.(check int) "distinct" (List.length ps)
    (List.length (List.sort_uniq compare ps))

let test_yen_k_zero () =
  Alcotest.(check int) "no paths" 0 (List.length (Kshortest.yen (diamond ()) ~src:0 ~dst:2 ~k:0))

let test_yen_negative_k () =
  Alcotest.check_raises "negative k" (Invalid_argument "Kshortest.yen: k < 0") (fun () ->
      ignore (Kshortest.yen (diamond ()) ~src:0 ~dst:2 ~k:(-1)))

(* ---------- Successive disjoint paths (Fig 4b) ---------- *)

(* Fig 4(b)'s removal policy: each round drops the found path's
   interior nodes that are not [protected]. *)
let successive g ~src ~dst ~rounds ~protected =
  let remove work (_, path) =
    let dead v = v <> src && v <> dst && (not (protected v)) && List.mem v path in
    Graph.remove_edges work (fun u e -> not (dead u || dead e.Graph.dst))
  in
  Multipath.successive g ~src ~dst ~k:rounds ~remove

let test_disjoint_successive () =
  (* Two parallel 2-hop routes plus one direct expensive edge, which
     node-disjoint removal consumes with its round. *)
  let g = Graph.create 6 in
  Graph.add_undirected g 0 1 1.0;
  Graph.add_undirected g 1 5 1.0;
  Graph.add_undirected g 0 2 2.0;
  Graph.add_undirected g 2 5 2.0;
  Graph.add_undirected g 0 5 10.0;
  let rounds = Multipath.k_disjoint ~disjointness:Multipath.Node_disjoint g ~src:0 ~dst:5 ~k:5 in
  Alcotest.(check int) "three rounds" 3 (List.length rounds);
  let ds = List.map fst rounds in
  Alcotest.(check (list (float 1e-9))) "lengths grow" [ 2.0; 4.0; 10.0 ] ds

let test_disjoint_protected () =
  let g = Graph.create 4 in
  Graph.add_undirected g 0 1 1.0;
  Graph.add_undirected g 1 3 1.0;
  Graph.add_undirected g 0 2 5.0;
  Graph.add_undirected g 2 3 5.0;
  (* protecting node 1 keeps the cheap route available forever *)
  let rounds = successive g ~src:0 ~dst:3 ~rounds:3 ~protected:(fun v -> v = 1) in
  Alcotest.(check int) "all rounds available" 3 (List.length rounds);
  List.iter (fun (d, _) -> check_float 1e-9 "always cheap" 2.0 d) rounds

let test_disjoint_preserves_input () =
  let g = diamond () in
  let before = Graph.edge_count g in
  ignore (successive g ~src:0 ~dst:2 ~rounds:3 ~protected:(fun _ -> false));
  Alcotest.(check int) "input untouched" before (Graph.edge_count g)

let suites =
  [
    ( "graph.heap",
      [
        Alcotest.test_case "pop order" `Quick test_heap_order;
        Alcotest.test_case "peek and clear" `Quick test_heap_peek_clear;
        QCheck_alcotest.to_alcotest prop_heap_sorts;
      ] );
    ( "graph.dijkstra",
      [
        Alcotest.test_case "basic" `Quick test_dijkstra_basic;
        Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
        Alcotest.test_case "early exit" `Quick test_dijkstra_early_exit;
        Alcotest.test_case "all pairs" `Quick test_all_pairs;
        Alcotest.test_case "remove edges" `Quick test_graph_remove_edges;
        Alcotest.test_case "edge tags" `Quick test_graph_tags;
        QCheck_alcotest.to_alcotest prop_dijkstra_lower_bound;
      ] );
    ( "graph.kshortest",
      [
        Alcotest.test_case "diamond" `Quick test_yen_basic;
        Alcotest.test_case "sorted distinct" `Quick test_yen_sorted_distinct;
        Alcotest.test_case "k = 0" `Quick test_yen_k_zero;
        Alcotest.test_case "negative k" `Quick test_yen_negative_k;
      ] );
    ( "graph.disjoint",
      [
        Alcotest.test_case "successive removal" `Quick test_disjoint_successive;
        Alcotest.test_case "protected nodes" `Quick test_disjoint_protected;
        Alcotest.test_case "input preserved" `Quick test_disjoint_preserves_input;
      ] );
  ]

(* ---------- deeper properties ---------- *)

let random_graph seed ~n ~edges =
  let rng = Cisp_util.Rng.create seed in
  let g = Graph.create n in
  for _ = 1 to edges do
    let u = Cisp_util.Rng.int rng n and v = Cisp_util.Rng.int rng n in
    if u <> v then Graph.add_undirected g u v (Cisp_util.Rng.uniform rng 1.0 10.0)
  done;
  g

let path_length g path =
  let rec loop acc = function
    | u :: (v :: _ as rest) ->
      let w =
        List.fold_left
          (fun best (e : Graph.edge) -> if e.dst = v then Float.min best e.weight else best)
          infinity (Graph.succ g u)
      in
      loop (acc +. w) rest
    | _ -> acc
  in
  loop 0.0 path

let prop_yen_first_is_shortest =
  QCheck.Test.make ~name:"yen's first path is the shortest path" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph seed ~n:8 ~edges:16 in
      match (Kshortest.yen g ~src:0 ~dst:7 ~k:3, Dijkstra.shortest_path g ~src:0 ~dst:7) with
      | [], None -> true
      | (d, _) :: _, Some (d', _) -> Float.abs (d -. d') < 1e-9
      | _ -> false)

let prop_yen_paths_valid =
  QCheck.Test.make ~name:"yen paths are valid and correctly priced" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 1000) ~n:8 ~edges:18 in
      List.for_all
        (fun (d, p) ->
          List.hd p = 0
          && List.nth p (List.length p - 1) = 7
          && Float.abs (path_length g p -. d) < 1e-9
          (* loopless *)
          && List.length p = List.length (List.sort_uniq compare p))
        (Kshortest.yen g ~src:0 ~dst:7 ~k:4))

let prop_yen_sorted =
  QCheck.Test.make ~name:"yen path lengths are nondecreasing" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 3000) ~n:9 ~edges:20 in
      let ds = List.map fst (Kshortest.yen g ~src:0 ~dst:8 ~k:5) in
      List.sort Float.compare ds = ds)

let prop_disjoint_lengths_nondecreasing =
  QCheck.Test.make ~name:"successive disjoint paths never get shorter" ~count:100
    QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 2000) ~n:10 ~edges:24 in
      let rounds = successive g ~src:0 ~dst:9 ~rounds:6 ~protected:(fun _ -> false) in
      let ds = List.map fst rounds in
      List.sort Float.compare ds = ds)

let is_simple p = List.length p = List.length (List.sort_uniq compare p)

let interior p =
  match p with [] | [ _ ] -> [] | _ :: rest -> List.filter ((<>) (List.nth p (List.length p - 1))) rest

let prop_disjoint_paths_simple =
  QCheck.Test.make ~name:"successive disjoint paths are simple" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 4000) ~n:10 ~edges:24 in
      let rounds = successive g ~src:0 ~dst:9 ~rounds:6 ~protected:(fun _ -> false) in
      List.for_all (fun (_, p) -> is_simple p) rounds)

let prop_disjoint_interiors_disjoint =
  QCheck.Test.make ~name:"successive paths share no interior node" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 5000) ~n:10 ~edges:24 in
      let rounds = successive g ~src:0 ~dst:9 ~rounds:6 ~protected:(fun _ -> false) in
      let interiors = List.map (fun (_, p) -> interior p) rounds in
      let rec pairwise = function
        | [] -> true
        | i :: rest ->
          List.for_all (fun j -> List.for_all (fun v -> not (List.mem v j)) i) rest
          && pairwise rest
      in
      pairwise interiors)

let prop_searches_preserve_input =
  QCheck.Test.make ~name:"yen/disjoint/multipath leave the input graph unmodified" ~count:100
    QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 6000) ~n:9 ~edges:20 in
      let snapshot g =
        List.init 9 (fun u ->
            List.map (fun (e : Graph.edge) -> (e.dst, e.weight, e.tag)) (Graph.succ g u))
      in
      let before = snapshot g in
      ignore (Kshortest.yen g ~src:0 ~dst:8 ~k:4);
      ignore (successive g ~src:0 ~dst:8 ~rounds:4 ~protected:(fun _ -> false));
      ignore (Multipath.k_disjoint g ~src:0 ~dst:8 ~k:4);
      ignore (Multipath.k_paths ~disjointness:Multipath.Node_disjoint g ~src:0 ~dst:8 ~k:4);
      snapshot g = before)

let deep_suite =
  ( "graph.properties",
    [
      QCheck_alcotest.to_alcotest prop_yen_first_is_shortest;
      QCheck_alcotest.to_alcotest prop_yen_paths_valid;
      QCheck_alcotest.to_alcotest prop_yen_sorted;
      QCheck_alcotest.to_alcotest prop_disjoint_lengths_nondecreasing;
      QCheck_alcotest.to_alcotest prop_disjoint_paths_simple;
      QCheck_alcotest.to_alcotest prop_disjoint_interiors_disjoint;
      QCheck_alcotest.to_alcotest prop_searches_preserve_input;
    ] )

(* ---------- Multipath ---------- *)

(* src 0, dst 4: a 2-hop primary through node 1, an edge-disjoint
   detour that reuses node 1 over fresh edges, and an expensive direct
   edge.  Distinguishes the two disjointness modes. *)
let multipath_graph () =
  let g = Graph.create 5 in
  Graph.add_undirected g 0 1 1.0;
  Graph.add_undirected g 1 4 1.0;
  Graph.add_undirected g 0 2 1.0;
  Graph.add_undirected g 2 1 0.5;
  Graph.add_undirected g 1 3 0.5;
  Graph.add_undirected g 3 4 1.0;
  Graph.add_undirected g 0 4 10.0;
  g

let test_multipath_edge_disjoint () =
  let g = multipath_graph () in
  let paths = Multipath.k_disjoint g ~src:0 ~dst:4 ~k:5 in
  Alcotest.(check (list (float 1e-9))) "edge-disjoint lengths" [ 2.0; 3.0; 10.0 ]
    (List.map fst paths);
  match paths with
  | (_, p1) :: (_, p2) :: _ ->
    Alcotest.(check (list int)) "primary" [ 0; 1; 4 ] p1;
    Alcotest.(check (list int)) "detour reuses node 1" [ 0; 2; 1; 3; 4 ] p2
  | _ -> Alcotest.fail "expected 3 paths"

let test_multipath_node_disjoint () =
  let g = multipath_graph () in
  let paths = Multipath.k_disjoint ~disjointness:Multipath.Node_disjoint g ~src:0 ~dst:4 ~k:5 in
  Alcotest.(check (list (float 1e-9))) "node-disjoint lengths" [ 2.0; 10.0 ]
    (List.map fst paths)

let test_multipath_k_paths_top_up () =
  let g = multipath_graph () in
  let paths = Multipath.k_paths ~disjointness:Multipath.Node_disjoint g ~src:0 ~dst:4 ~k:3 in
  (* Two node-disjoint routes exist; Yen tops the set up to three.  The
     result is priority-ordered, not length-sorted. *)
  Alcotest.(check int) "topped up" 3 (List.length paths);
  Alcotest.(check (list (float 1e-9))) "priority order" [ 2.0; 10.0; 2.5 ] (List.map fst paths)

let test_multipath_invalid_k () =
  Alcotest.check_raises "negative k" (Invalid_argument "Multipath.successive: k < 0") (fun () ->
      ignore (Multipath.k_disjoint (diamond ()) ~src:0 ~dst:2 ~k:(-1)))

let undirected_pairs p =
  List.map (fun (u, v) -> (min u v, max u v))
    (let rec pairs = function u :: (v :: _ as rest) -> (u, v) :: pairs rest | _ -> [] in
     pairs p)

let prop_multipath_edge_disjointness =
  QCheck.Test.make ~name:"k_disjoint paths share no undirected edge" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 7000) ~n:10 ~edges:26 in
      let paths = Multipath.k_disjoint g ~src:0 ~dst:9 ~k:5 in
      let rec pairwise = function
        | [] -> true
        | (_, p) :: rest ->
          let mine = undirected_pairs p in
          List.for_all
            (fun (_, q) ->
              List.for_all (fun e -> not (List.mem e (undirected_pairs q))) mine)
            rest
          && pairwise rest
      in
      pairwise paths)

let prop_multipath_primary_is_shortest =
  QCheck.Test.make ~name:"k_disjoint primary equals dijkstra" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 8000) ~n:10 ~edges:22 in
      match (Multipath.k_disjoint g ~src:0 ~dst:9 ~k:3, Dijkstra.shortest_path g ~src:0 ~dst:9) with
      | [], None -> true
      | (d, _) :: _, Some (d', _) -> Float.abs (d -. d') < 1e-9
      | _ -> false)

let prop_multipath_simple_and_monotone =
  QCheck.Test.make ~name:"k_disjoint paths are simple with monotone lengths" ~count:100
    QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 9000) ~n:10 ~edges:24 in
      let paths = Multipath.k_disjoint g ~src:0 ~dst:9 ~k:5 in
      let ds = List.map fst paths in
      List.for_all (fun (_, p) -> is_simple p) paths && List.sort Float.compare ds = ds)

let multipath_suite =
  ( "graph.multipath",
    [
      Alcotest.test_case "edge-disjoint modes" `Quick test_multipath_edge_disjoint;
      Alcotest.test_case "node-disjoint modes" `Quick test_multipath_node_disjoint;
      Alcotest.test_case "k_paths top-up" `Quick test_multipath_k_paths_top_up;
      Alcotest.test_case "invalid k" `Quick test_multipath_invalid_k;
      QCheck_alcotest.to_alcotest prop_multipath_edge_disjointness;
      QCheck_alcotest.to_alcotest prop_multipath_primary_is_shortest;
      QCheck_alcotest.to_alcotest prop_multipath_simple_and_monotone;
    ] )

let suites = suites @ [ deep_suite; multipath_suite ]
