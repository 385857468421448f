let path_equal a b = List.equal Int.equal a b

(* Shortest path in [g] avoiding a set of removed nodes and removed
   root edges. *)
let constrained_shortest g ~src ~dst ~banned_nodes ~banned_edges =
  let g' = Graph.copy g in
  Graph.remove_edges g' (fun u e ->
      (not (Hashtbl.mem banned_nodes u))
      && (not (Hashtbl.mem banned_nodes e.Graph.dst))
      && not (Hashtbl.mem banned_edges (u, e.Graph.dst)));
  Dijkstra.shortest_path g' ~src ~dst

let prefix_length g path =
  (* Sum of edge weights along a node list. *)
  let rec loop acc = function
    | u :: (v :: _ as rest) ->
      let w =
        List.fold_left
          (fun best (e : Graph.edge) ->
            if e.dst = v then Float.min best e.weight else best)
          infinity (Graph.succ g u)
      in
      loop (acc +. w) rest
    | _ -> acc
  in
  loop 0.0 path

let yen g ~src ~dst ~k =
  if k < 0 then invalid_arg "Kshortest.yen: k < 0";
  if k = 0 then []
  else
    match Dijkstra.shortest_path g ~src ~dst with
    | None -> []
    | Some first ->
      let accepted = ref [ first ] in
      let candidates : (float * int list) list ref = ref [] in
      let add_candidate (d, p) =
        if
          (not (List.exists (fun (_, q) -> path_equal p q) !candidates))
          && not (List.exists (fun (_, q) -> path_equal p q) !accepted)
        then candidates := (d, p) :: !candidates
      in
      let rec take_prefix n = function
        | [] -> []
        | x :: rest -> if n = 0 then [] else x :: take_prefix (n - 1) rest
      in
      let rec rounds i prev_path =
        if i >= k then ()
        else begin
          let prev = Array.of_list prev_path in
          let len = Array.length prev in
          (* Spur from every node except the last. *)
          for spur_idx = 0 to len - 2 do
            let root = take_prefix (spur_idx + 1) prev_path in
            let spur_node = prev.(spur_idx) in
            let banned_edges = Hashtbl.create 8 in
            List.iter
              (fun (_, p) ->
                match (List.nth_opt p spur_idx, List.nth_opt p (spur_idx + 1)) with
                | Some u, Some v when path_equal (take_prefix (spur_idx + 1) p) root ->
                    Hashtbl.replace banned_edges (u, v) ()
                | _ -> ())
              !accepted;
            let banned_nodes = Hashtbl.create 8 in
            List.iteri
              (fun j v -> if j < spur_idx then Hashtbl.replace banned_nodes v ())
              prev_path;
            match constrained_shortest g ~src:spur_node ~dst ~banned_nodes ~banned_edges with
            | None -> ()
            | Some (_, spur_path) ->
              let root_without_spur = take_prefix spur_idx prev_path in
              let total_path = root_without_spur @ spur_path in
              (* Price the whole spliced path in one pass — cheaper to
                 get exactly right than summing the root and spur parts. *)
              let exact = prefix_length g total_path in
              if exact < infinity then add_candidate (exact, total_path)
          done;
          match List.sort (fun (a, _) (b, _) -> Float.compare a b) !candidates with
          | [] -> ()
          | best :: rest ->
            candidates := rest;
            accepted := !accepted @ [ best ];
            rounds (i + 1) (snd best)
        end
      in
      rounds 1 (snd first);
      !accepted
