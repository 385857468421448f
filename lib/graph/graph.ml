type edge = { dst : int; weight : float; tag : int }
type t = edge list array

let create n =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  Array.make n []

let node_count g = Array.length g
let edge_count g = Array.fold_left (fun acc es -> acc + List.length es) 0 g

let add_edge ?(tag = -1) g u v w =
  if w < 0.0 then invalid_arg "Graph.add_edge: negative weight";
  if not (u >= 0 && u < node_count g && v >= 0 && v < node_count g) then
    invalid_arg (Printf.sprintf "Graph.add_edge: node out of range %d-%d" u v);
  g.(u) <- { dst = v; weight = w; tag } :: g.(u)

let add_undirected ?tag g u v w =
  add_edge ?tag g u v w;
  add_edge ?tag g v u w

let succ g u = g.(u)
let iter_succ g u f = List.iter f g.(u)

let remove_edges g keep =
  for u = 0 to node_count g - 1 do
    g.(u) <- List.filter (keep u) g.(u)
  done

let copy = Array.copy
