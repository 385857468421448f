type edge = { dst : int; weight : float; tag : int }
type t = { adj : edge list array; mutable edges : int }

let create n =
  if n < 0 then invalid_arg "Graph.create: negative node count";
  { adj = Array.make n []; edges = 0 }

let node_count g = Array.length g.adj
let edge_count g = g.edges

let add_edge ?(tag = -1) g u v w =
  if w < 0.0 then invalid_arg "Graph.add_edge: negative weight";
  if not (u >= 0 && u < node_count g && v >= 0 && v < node_count g) then
    invalid_arg (Printf.sprintf "Graph.add_edge: node out of range %d-%d" u v);
  g.adj.(u) <- { dst = v; weight = w; tag } :: g.adj.(u);
  g.edges <- g.edges + 1

let add_undirected ?tag g u v w =
  add_edge ?tag g u v w;
  add_edge ?tag g v u w

let succ g u = g.adj.(u)
let iter_succ g u f = List.iter f g.adj.(u)

let remove_edges g keep =
  for u = 0 to node_count g - 1 do
    let before = List.length g.adj.(u) in
    g.adj.(u) <- List.filter (keep u) g.adj.(u);
    g.edges <- g.edges - (before - List.length g.adj.(u))
  done

let copy g = { adj = Array.copy g.adj; edges = g.edges }
