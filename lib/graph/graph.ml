type t = {
  edge_u : int array;
  edge_v : int array;
  first : int array;
  arc_dst : int array;
  arc_edge : int array;
  arc_weight : float array;
  removed : Bytes.t;
}

(* Two passes and no per-edge allocation: count each node's degree,
   then fill.  A node's arcs fill its range from the end, so they run
   in decreasing edge id. *)
let of_edges ~n u v w =
  if n < 0 then invalid_arg "Graph.of_edges: negative node count";
  let m = Array.length u in
  if Array.length v <> m || Array.length w <> m then
    invalid_arg "Graph.of_edges: endpoint and weight arrays differ in length";
  let first = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let a = u.(e) and b = v.(e) in
    if not (a >= 0 && a < n && b >= 0 && b < n) then
      invalid_arg (Printf.sprintf "Graph.of_edges: node out of range %d-%d" a b);
    if w.(e) < 0.0 then invalid_arg "Graph.of_edges: negative weight";
    first.(a + 1) <- first.(a + 1) + 1;
    first.(b + 1) <- first.(b + 1) + 1
  done;
  for x = 1 to n do
    first.(x) <- first.(x) + first.(x - 1)
  done;
  let arc_dst = Array.make (2 * m) 0 and arc_edge = Array.make (2 * m) 0 in
  let arc_weight = Array.make (2 * m) 0.0 in
  let fill = Array.sub first 1 n in
  let add x y e =
    fill.(x) <- fill.(x) - 1;
    arc_dst.(fill.(x)) <- y;
    arc_edge.(fill.(x)) <- e;
    arc_weight.(fill.(x)) <- w.(e)
  in
  for e = 0 to m - 1 do
    add u.(e) v.(e) e;
    add v.(e) u.(e) e
  done;
  { edge_u = u; edge_v = v; first; arc_dst; arc_edge; arc_weight; removed = Bytes.make m '\000' }

let node_count g = Array.length g.first - 1
let edge_count g = Array.length g.edge_u
let remove g e = Bytes.set g.removed e '\001'
let[@inline] is_removed g e = Bytes.get g.removed e <> '\000'
let copy g = { g with removed = Bytes.copy g.removed }
