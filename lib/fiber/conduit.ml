module Rng = Cisp_util.Rng
module Graph = Cisp_graph.Graph
module Dijkstra = Cisp_graph.Dijkstra
module City = Cisp_data.City

type mode = Synthetic | Assumed of float

(* The synthetic network's RNG seed and the range its per-edge route
   inflation is drawn from. *)
let synthetic_seed = 13
let circuitousness_lo = 1.08
let circuitousness_hi = 1.35

type t = {
  n : int;
  geodesic : float array array;
  route : float array array;    (* shortest fiber route, km *)
}

(* Monomorphic lexicographic order on candidate edges: same order as
   the polymorphic [compare] it replaces, without the runtime
   structural walk (L12). *)
let compare_edge (a, b) (c, d) =
  let c0 = Int.compare a c in
  if c0 <> 0 then c0 else Int.compare b d

(* Gabriel graph: edge (i,j) iff no third site lies inside the circle
   with diameter ij.  On geographic points we use the distance-based
   characterization d_ik^2 + d_jk^2 >= d_ij^2 for all k. *)
let gabriel_edges geodesic n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dij2 = geodesic.(i).(j) *. geodesic.(i).(j) in
      let blocked = ref false in
      for k = 0 to n - 1 do
        if k <> i && k <> j then begin
          let dik = geodesic.(i).(k) and djk = geodesic.(j).(k) in
          if (dik *. dik) +. (djk *. djk) < dij2 then blocked := true
        end
      done;
      if not !blocked then edges := (i, j) :: !edges
    done
  done;
  !edges

(* A few extra nearest-neighbour edges guard against degenerate
   configurations and give the network realistic redundancy. *)
let knn_edges geodesic n ~k =
  let edges = ref [] in
  for i = 0 to n - 1 do
    let order = Array.init n (fun j -> j) in
    Array.sort (fun a b -> Float.compare geodesic.(i).(a) geodesic.(i).(b)) order;
    let count = min k (n - 1) in
    for r = 1 to count do
      let j = order.(r) in
      edges := (min i j, max i j) :: !edges
    done
  done;
  List.sort_uniq compare_edge !edges

let build ?(mode = Synthetic) ~sites () =
  let sites = Array.of_list sites in
  let n = Array.length sites in
  let geodesic = City.geodesic_matrix sites in
  match mode with
  | Assumed factor ->
    (* Route such that route * 1.5 = factor * geodesic. *)
    let route_factor = factor /. Cisp_util.Units.fiber_latency_factor in
    let route = Array.map (Array.map (fun g -> g *. route_factor)) geodesic in
    { n; geodesic; route }
  | Synthetic ->
    let rng = Rng.create synthetic_seed in
    let pairs =
      Array.of_list
        (List.sort_uniq compare_edge (gabriel_edges geodesic n @ knn_edges geodesic n ~k:3))
    in
    let km =
      Array.map
        (fun (i, j) -> geodesic.(i).(j) *. Rng.uniform rng circuitousness_lo circuitousness_hi)
        pairs
    in
    let route = Dijkstra.all_pairs (Graph.of_edges ~n (Array.map fst pairs) (Array.map snd pairs) km) in
    { n; geodesic; route }

let route_km t i j = t.route.(i).(j)

let latency_km t i j = t.route.(i).(j) *. Cisp_util.Units.fiber_latency_factor

let latency_matrix t =
  Array.map (Array.map (fun r -> r *. Cisp_util.Units.fiber_latency_factor)) t.route

let mean_latency_inflation t =
  let acc = ref 0.0 and count = ref 0 in
  for i = 0 to t.n - 1 do
    for j = i + 1 to t.n - 1 do
      if t.geodesic.(i).(j) > 0.0 && t.route.(i).(j) < infinity then begin
        acc := !acc +. (latency_km t i j /. t.geodesic.(i).(j));
        incr count
      end
    done
  done;
  if !count = 0 then 0.0 else !acc /. float_of_int !count
