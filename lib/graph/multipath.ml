type disjointness = Edge_disjoint | Node_disjoint

let successive g ~src ~dst ~k ~remove =
  if k < 0 then invalid_arg "Multipath.successive: k < 0";
  let work = Graph.copy g in
  let rec loop remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      match Dijkstra.shortest_path work ~src ~dst with
      | None -> List.rev acc
      | Some found ->
        remove work found;
        loop (remaining - 1) (found :: acc)
    end
  in
  loop k []

let rec consecutive_pairs acc = function
  | u :: (v :: _ as rest) -> consecutive_pairs ((u, v) :: acc) rest
  | _ -> acc

let remove_for_mode mode ~src ~dst work (_, path) =
  let banned_pairs = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace banned_pairs (u, v) ();
      Hashtbl.replace banned_pairs (v, u) ())
    (consecutive_pairs [] path);
  let dead_nodes = Hashtbl.create 16 in
  (match mode with
  | Edge_disjoint -> ()
  | Node_disjoint ->
    List.iter (fun v -> if v <> src && v <> dst then Hashtbl.replace dead_nodes v ()) path);
  Graph.remove_edges work (fun u e ->
      (not (Hashtbl.mem banned_pairs (u, e.Graph.dst)))
      && (not (Hashtbl.mem dead_nodes u))
      && not (Hashtbl.mem dead_nodes e.Graph.dst))

let k_disjoint ?(disjointness = Edge_disjoint) g ~src ~dst ~k =
  successive g ~src ~dst ~k ~remove:(remove_for_mode disjointness ~src ~dst)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let k_paths ?(disjointness = Edge_disjoint) g ~src ~dst ~k =
  let disjoint = k_disjoint ~disjointness g ~src ~dst ~k in
  let have = List.length disjoint in
  if have >= k then disjoint
  else begin
    let seen = List.map snd disjoint in
    let fresh (_, p) = not (List.exists (fun q -> List.equal Int.equal p q) seen) in
    let extra = List.filter fresh (Kshortest.yen g ~src ~dst ~k) in
    disjoint @ take (k - have) extra
  end
