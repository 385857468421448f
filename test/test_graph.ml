open Cisp_graph

let check_float eps = Alcotest.(check (float eps))

(* ---------- Heap ---------- *)

let drain h =
  let rec loop acc =
    if Heap.length h = 0 then List.rev acc
    else begin
      let k = Heap.min_key h in
      let v = Heap.pop_min h in
      loop ((k, v) :: acc)
    end
  in
  loop []

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.0; 1.0; 4.0; 2.0; 3.0 ];
  Alcotest.(check (list (pair (float 0.0) int)))
    "sorted" [ (1.0, 1); (2.0, 2); (3.0, 3); (4.0, 4); (5.0, 5) ] (drain h)

let test_heap_min_key_pop_min () =
  let h = Heap.create () in
  Heap.push h 2.0 20;
  Heap.push h 1.0 10;
  check_float 0.0 "min key" 1.0 (Heap.min_key h);
  Alcotest.(check int) "length" 2 (Heap.length h);
  Alcotest.(check int) "pop min payload" 10 (Heap.pop_min h);
  check_float 0.0 "next key" 2.0 (Heap.min_key h);
  Alcotest.(check int) "last payload" 20 (Heap.pop_min h);
  Alcotest.(check int) "empty" 0 (Heap.length h)

let test_heap_empty_raises () =
  let h = Heap.create () in
  Alcotest.check_raises "min_key" (Invalid_argument "Heap.min_key: empty heap") (fun () ->
      ignore (Heap.min_key h));
  Alcotest.check_raises "pop_min" (Invalid_argument "Heap.pop_min: empty heap") (fun () ->
      ignore (Heap.pop_min h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_range 0.0 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      List.map fst (drain h) = List.sort Float.compare keys)

(* ---------- Graph / Dijkstra ---------- *)

(* A graph from (u, v, weight) triples, edge ids in list order. *)
let of_list n es =
  let es = Array.of_list es in
  Graph.of_edges ~n
    (Array.map (fun (u, _, _) -> u) es)
    (Array.map (fun (_, v, _) -> v) es)
    (Array.map (fun (_, _, w) -> w) es)

(*   0 --1-- 1 --1-- 2
     |               |
     +------10-------+   *)
let diamond () = of_list 3 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 10.0) ]

let test_dijkstra_basic () =
  let g = diamond () in
  let r = Dijkstra.run g ~src:0 in
  check_float 1e-9 "dist 0->2" 2.0 r.dist.(2);
  Alcotest.(check (list int)) "path" [ 0; 1; 2 ] (Dijkstra.path r ~dst:2)

let test_dijkstra_unreachable () =
  let g = of_list 3 [ (0, 1, 1.0) ] in
  let r = Dijkstra.run g ~src:0 in
  Alcotest.(check bool) "unreachable" true (r.dist.(2) = infinity);
  Alcotest.(check (list int)) "no path" [] (Dijkstra.path r ~dst:2);
  Alcotest.(check bool) "shortest path none" true (Dijkstra.shortest_path g ~src:0 ~dst:2 = None)

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
  Graph.remove g 0;
  let r = Dijkstra.run g ~src:0 in
  check_float 1e-9 "reroutes over long edge" 10.0 r.dist.(2);
  Alcotest.(check (list int)) "over edge 2" [ 2 ] (Dijkstra.path_edges r ~dst:2)

(* Edge ids are the order [of_edges] was given: a parallel pair of
   edges stays two edges, and a path names the one it took. *)
let test_graph_edge_ids () =
  let g = of_list 2 [ (0, 1, 3.0); (1, 0, 1.0) ] in
  Alcotest.(check int) "edges" 2 (Graph.edge_count g);
  Alcotest.(check (list int)) "lighter of the pair" [ 1 ]
    (Dijkstra.path_edges (Dijkstra.run g ~src:0) ~dst:1);
  Graph.remove g 1;
  Alcotest.(check (list int)) "the other" [ 0 ]
    (Dijkstra.path_edges (Dijkstra.run g ~src:1) ~dst:0)

(* The tie rule every golden rests on: a node's arcs are relaxed in
   decreasing edge id and a distance improves only strictly, so of two
   equal-length routes Dijkstra keeps the one relaxed first. *)
let test_dijkstra_tie_rule () =
  let parallel = of_list 2 [ (0, 1, 1.0); (0, 1, 1.0) ] in
  Alcotest.(check (list int)) "parallel edges: higher id" [ 1 ]
    (Dijkstra.path_edges (Dijkstra.run parallel ~src:0) ~dst:1);
  (* 0-1-3 and 0-2-3, all hops 1: node 2's arc from 0 is relaxed
     first, so 2 settles first and reaches 3 first. *)
  let square = of_list 4 [ (0, 1, 1.0); (1, 3, 1.0); (0, 2, 1.0); (2, 3, 1.0) ] in
  let r = Dijkstra.run square ~src:0 in
  Alcotest.(check (list int)) "square: route over the higher ids" [ 0; 2; 3 ]
    (Dijkstra.path r ~dst:3);
  Alcotest.(check (list int)) "square: its edges" [ 2; 3 ] (Dijkstra.path_edges r ~dst:3)

(* Random weighted edges between distinct nodes: [edges] draws,
   self-loops dropped. *)
let random_edges seed ~n ~edges =
  let rng = Cisp_util.Rng.create seed in
  let es = ref [] in
  for _ = 1 to edges do
    let u = Cisp_util.Rng.int rng n and v = Cisp_util.Rng.int rng n in
    if u <> v then es := (u, v, Cisp_util.Rng.uniform rng 1.0 10.0) :: !es
  done;
  List.rev !es

(* Random graph: dijkstra distance <= length of any sampled random walk. *)
let prop_dijkstra_lower_bound =
  QCheck.Test.make ~name:"dijkstra is a lower bound over random walks" ~count:100
    QCheck.small_int
    (fun seed ->
      let g = of_list 12 (random_edges seed ~n:12 ~edges:30) in
      let rng = Cisp_util.Rng.create (seed + 1) in
      let r = Dijkstra.run g ~src:0 in
      (* random walk from 0 of up to 8 steps *)
      let rec walk u len steps =
        let degree = g.first.(u + 1) - g.first.(u) in
        if steps = 0 || degree = 0 then true
        else begin
          let a = g.first.(u) + Cisp_util.Rng.int rng degree in
          let len = len +. g.arc_weight.(a) in
          r.dist.(g.arc_dst.(a)) <= len +. 1e-9 && walk g.arc_dst.(a) len (steps - 1)
        end
      in
      walk 0 0.0 8)

(* Every node's distance by its bits and its node path. *)
let search_bits g ~src =
  let r = Dijkstra.run g ~src in
  Array.init (Graph.node_count g) (fun v ->
      (Int64.bits_of_float r.dist.(v), Dijkstra.path r ~dst:v))

let prop_removed_equals_absent =
  QCheck.Test.make ~name:"removed edges search as absent ones" ~count:200 QCheck.small_int
    (fun seed ->
      let rng = Cisp_util.Rng.create (seed + 9000) in
      let es = random_edges seed ~n:10 ~edges:25 in
      let gone = List.map (fun _ -> Cisp_util.Rng.int rng 3 = 0) es in
      let g = of_list 10 es in
      List.iteri (fun e drop -> if drop then Graph.remove g e) gone;
      let kept = List.filteri (fun e _ -> not (List.nth gone e)) es in
      let src = Cisp_util.Rng.int rng 10 in
      search_bits g ~src = search_bits (of_list 10 kept) ~src)

(* Random weights are distinct, so no two paths tie and a repaired
   tree must carry a fresh search's distances bit for bit. *)
let prop_repair_equals_fresh =
  QCheck.Test.make ~name:"repair after removing tree edges equals a fresh search" ~count:200
    QCheck.small_int
    (fun seed ->
      let rng = Cisp_util.Rng.create (seed + 10_000) in
      let n = 14 in
      let g = of_list n (random_edges (seed + 11_000) ~n ~edges:40) in
      let t = Dijkstra.create g in
      Dijkstra.search t ~src:0;
      let fresh () = Array.map Int64.bits_of_float (Dijkstra.run g ~src:0).dist in
      (* Three rounds, each removing the tree edge into some settled
         nodes, then repairing. *)
      List.for_all
        (fun _ ->
          for v = 1 to n - 1 do
            if t.via.(v) >= 0 && Cisp_util.Rng.int rng 3 = 0 then Graph.remove g t.via.(v)
          done;
          Dijkstra.repair t;
          Array.map Int64.bits_of_float t.dist = fresh ())
        [ 1; 2; 3 ])

(* ---------- Successive disjoint paths (Fig 4b) ---------- *)

(* Fig 4(b)'s removal policy: each round removes every edge at the
   found path's nodes that are not an end nor [protected]. *)
let successive g ~src ~dst ~rounds ~protected =
  let remove (work : Graph.t) edges =
    let remove_at v =
      if v <> src && v <> dst && not (protected v) then
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
  Multipath.successive g ~src ~dst ~k:rounds ~remove

let test_disjoint_successive () =
  (* Two parallel 2-hop routes and one 3-hop route: each round takes
     the cheapest survivor, and the search stops once [dst] is cut
     off, short of [k]. *)
  let g =
    of_list 6
      [
        (0, 1, 1.0); (1, 5, 1.0); (0, 2, 2.0); (2, 5, 2.0); (0, 3, 2.0); (3, 4, 2.0); (4, 5, 2.0);
      ]
  in
  let rounds = successive g ~src:0 ~dst:5 ~rounds:5 ~protected:(fun _ -> false) in
  Alcotest.(check (list (list int))) "paths" [ [ 0; 1; 5 ]; [ 0; 2; 5 ]; [ 0; 3; 4; 5 ] ]
    (List.map snd rounds);
  Alcotest.(check (list (float 1e-9))) "lengths grow" [ 2.0; 4.0; 6.0 ] (List.map fst rounds)

let test_disjoint_protected () =
  let g = of_list 4 [ (0, 1, 1.0); (1, 3, 1.0); (0, 2, 5.0); (2, 3, 5.0) ] in
  (* protecting node 1 keeps the cheap route available forever *)
  let rounds = successive g ~src:0 ~dst:3 ~rounds:3 ~protected:(fun v -> v = 1) in
  Alcotest.(check int) "all rounds available" 3 (List.length rounds);
  List.iter (fun (d, _) -> check_float 1e-9 "always cheap" 2.0 d) rounds

let test_disjoint_preserves_input () =
  let g = diamond () in
  ignore (successive g ~src:0 ~dst:2 ~rounds:3 ~protected:(fun _ -> false));
  Alcotest.(check bool) "input untouched" true
    (List.for_all (fun e -> not (Graph.is_removed g e)) (List.init (Graph.edge_count g) Fun.id))

let suites =
  [
    ( "graph.heap",
      [
        Alcotest.test_case "pop order" `Quick test_heap_order;
        Alcotest.test_case "min_key and pop_min" `Quick test_heap_min_key_pop_min;
        Alcotest.test_case "empty heap raises" `Quick test_heap_empty_raises;
        QCheck_alcotest.to_alcotest prop_heap_sorts;
      ] );
    ( "graph.dijkstra",
      [
        Alcotest.test_case "basic" `Quick test_dijkstra_basic;
        Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
        Alcotest.test_case "early exit" `Quick test_dijkstra_early_exit;
        Alcotest.test_case "all pairs" `Quick test_all_pairs;
        Alcotest.test_case "remove edges" `Quick test_graph_remove_edges;
        Alcotest.test_case "edge ids" `Quick test_graph_edge_ids;
        Alcotest.test_case "tie rule" `Quick test_dijkstra_tie_rule;
        QCheck_alcotest.to_alcotest prop_dijkstra_lower_bound;
        QCheck_alcotest.to_alcotest prop_removed_equals_absent;
        QCheck_alcotest.to_alcotest prop_repair_equals_fresh;
      ] );
    ( "graph.disjoint",
      [
        Alcotest.test_case "successive removal" `Quick test_disjoint_successive;
        Alcotest.test_case "protected nodes" `Quick test_disjoint_protected;
        Alcotest.test_case "input preserved" `Quick test_disjoint_preserves_input;
      ] );
  ]

(* ---------- deeper properties ---------- *)

let random_graph seed ~n ~edges = of_list n (random_edges seed ~n ~edges)

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

let prop_successive_preserves_input =
  QCheck.Test.make ~name:"successive leaves the input graph unmodified" ~count:100
    QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 6000) ~n:9 ~edges:20 in
      let snapshot (g : Graph.t) =
        (Bytes.to_string g.removed, g.first, g.arc_dst, g.arc_edge, g.arc_weight)
      in
      let before = snapshot g in
      ignore (successive g ~src:0 ~dst:8 ~rounds:4 ~protected:(fun _ -> false));
      snapshot g = before)

let deep_suite =
  ( "graph.properties",
    [
      QCheck_alcotest.to_alcotest prop_disjoint_lengths_nondecreasing;
      QCheck_alcotest.to_alcotest prop_disjoint_paths_simple;
      QCheck_alcotest.to_alcotest prop_disjoint_interiors_disjoint;
      QCheck_alcotest.to_alcotest prop_successive_preserves_input;
    ] )

(* ---------- Multipath ---------- *)

let test_multipath_invalid_k () =
  Alcotest.check_raises "negative k" (Invalid_argument "Multipath.successive: k < 0") (fun () ->
      ignore (successive (diamond ()) ~src:0 ~dst:2 ~rounds:(-1) ~protected:(fun _ -> false)))

let prop_multipath_primary_is_shortest =
  QCheck.Test.make ~name:"successive primary equals dijkstra" ~count:100 QCheck.small_int
    (fun seed ->
      let g = random_graph (seed + 8000) ~n:10 ~edges:22 in
      match
        ( successive g ~src:0 ~dst:9 ~rounds:3 ~protected:(fun _ -> false),
          Dijkstra.shortest_path g ~src:0 ~dst:9 )
      with
      | [], None -> true
      | (d, _) :: _, Some (d', _) -> Float.abs (d -. d') < 1e-9
      | _ -> false)

let multipath_suite =
  ( "graph.multipath",
    [
      Alcotest.test_case "invalid k" `Quick test_multipath_invalid_k;
      QCheck_alcotest.to_alcotest prop_multipath_primary_is_shortest;
    ] )

let suites = suites @ [ deep_suite; multipath_suite ]
