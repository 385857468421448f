let successive g ~src ~dst ~k ~remove =
  if k < 0 then invalid_arg "Multipath.successive: k < 0";
  let work = Graph.copy g in
  let rec loop remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let r = Dijkstra.run_to work ~src ~dst in
      if Float.equal r.Dijkstra.dist.(dst) infinity then List.rev acc
      else begin
        let found = (r.Dijkstra.dist.(dst), Dijkstra.path r ~dst) in
        remove work (Dijkstra.path_edges r ~dst);
        loop (remaining - 1) (found :: acc)
      end
    end
  in
  loop k []
