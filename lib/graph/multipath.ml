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
