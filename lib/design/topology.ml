module Iset = Set.Make (Int)

type t = {
  inputs : Inputs.t;
  built : (int * int) list;
  index : Iset.t;
  cost : int;
}

let norm (i, j) = if i < j then (i, j) else (j, i)

(* Packed key of a normalized pair for the membership index.  Site
   counts are at most a few hundred; 20 bits each is comfortable. *)
let key (i, j) = (i lsl 20) lor j

(* Monomorphic lexicographic order on link pairs: same order as the
   polymorphic [compare] it replaces, without the runtime structural
   walk (L12). *)
let compare_pair (a, b) (c, d) =
  let c0 = Int.compare a c in
  if c0 <> 0 then c0 else Int.compare b d

let link_cost (inputs : Inputs.t) i j = inputs.mw_cost.(i).(j)

(* The membership index mirrors [built] exactly: a persistent set, so
   the functional [add]/[remove] share structure instead of copying.
   [built] keeps its construction order — [distances] folds over it
   and float relaxation order is observable — while every membership
   probe (greedy re-scoring, capacity routing) is O(log built) on the
   index instead of O(built) on the list. *)
let of_links inputs pairs =
  let pairs = List.sort_uniq compare_pair (List.map norm pairs) in
  List.iter
    (fun (i, j) ->
      if Float.equal inputs.Inputs.mw_km.(i).(j) infinity then
        invalid_arg (Printf.sprintf "Topology.of_links: no MW link %d-%d" i j))
    pairs;
  let cost = List.fold_left (fun acc (i, j) -> acc + link_cost inputs i j) 0 pairs in
  let index = List.fold_left (fun s pair -> Iset.add (key pair) s) Iset.empty pairs in
  { inputs; built = pairs; index; cost }

let empty inputs = { inputs; built = []; index = Iset.empty; cost = 0 }

let is_built t i j = Iset.mem (key (norm (i, j))) t.index

let add t pair =
  let pair = norm pair in
  if Iset.mem (key pair) t.index then t
  else begin
    let i, j = pair in
    {
      t with
      built = pair :: t.built;
      index = Iset.add (key pair) t.index;
      cost = t.cost + link_cost t.inputs i j;
    }
  end

let remove t pair =
  let pair = norm pair in
  if not (Iset.mem (key pair) t.index) then t
  else begin
    let i, j = pair in
    {
      t with
      built = List.filter (( <> ) pair) t.built;
      index = Iset.remove (key pair) t.index;
      cost = t.cost - link_cost t.inputs i j;
    }
  end

(* Metric closure of the complete fiber mesh.  Fiber route matrices
   are already shortest paths over the conduit graph, hence metric;
   one Floyd-Warshall pass guards against non-metric synthetic
   inputs.  Row [k] is a fixed point of pass [k] (the candidate
   d(k,k) + d(k,j) can never beat d(k,j) with non-negative
   distances), so reading the pivot row while updating the others is
   exact. *)
let fiber_baseline (inputs : Inputs.t) =
  let n = Inputs.n_sites inputs in
  let d = Array.map Array.copy inputs.fiber_km in
  for k = 0 to n - 1 do
    let pivot = d.(k) in
    for i = 0 to n - 1 do
      let dik = d.(i).(k) in
      if dik < infinity then begin
        let row = d.(i) in
        for j = 0 to n - 1 do
          let alt = dik +. pivot.(j) in
          if alt < row.(j) then row.(j) <- alt
        done
      end
    done
  done;
  d

(* Exact closure after adding one extra edge (i,j,w) to a closed
   metric: any path uses the new edge at most once (positive weights),
   so new_d(s,t) = min(d(s,t), d(s,i)+w+d(j,t), d(s,j)+w+d(i,t)). *)
let distances_incremental (inputs : Inputs.t) d (i, j) =
  let n = Inputs.n_sites inputs in
  let w = inputs.mw_km.(i).(j) in
  if not (w < infinity) then invalid_arg "Topology.distances_incremental: non-finite link length";
  let out = Array.map Array.copy d in
  let di = d.(i) and dj = d.(j) in
  for s = 0 to n - 1 do
    let dsi = d.(s).(i) and dsj = d.(s).(j) in
    let row = out.(s) in
    for t = 0 to n - 1 do
      let via_ij = dsi +. w +. dj.(t) in
      let via_ji = dsj +. w +. di.(t) in
      let alt = Float.min via_ij via_ji in
      if alt < row.(t) then row.(t) <- alt
    done
  done;
  out

let distances t =
  List.fold_left
    (fun d pair -> distances_incremental t.inputs d pair)
    (fiber_baseline t.inputs) t.built

let mean_stretch (inputs : Inputs.t) d =
  let n = Inputs.n_sites inputs in
  let num = ref 0.0 and den = ref 0.0 in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t then begin
        let h = inputs.traffic.(s).(t) in
        if h > 0.0 then begin
          let g = inputs.geodesic_km.(s).(t) in
          let stretch = if g > 0.0 then d.(s).(t) /. g else 1.0 in
          num := !num +. (h *. stretch);
          den := !den +. h
        end
      end
    done
  done;
  if Float.equal !den 0.0 then 1.0 else !num /. !den

let stretch_of t = mean_stretch t.inputs (distances t)

let pair_stretch (inputs : Inputs.t) d s t =
  let g = inputs.geodesic_km.(s).(t) in
  if g > 0.0 then d.(s).(t) /. g else 1.0

(* ---------- the site network ---------- *)

module Graph = Cisp_graph.Graph
module Dijkstra = Cisp_graph.Dijkstra

type medium = Mw | Fiber

let rides_mw t i j =
  is_built t i j && t.inputs.Inputs.mw_km.(i).(j) < t.inputs.Inputs.fiber_km.(i).(j)

let hop_km t i j =
  if rides_mw t i j then t.inputs.Inputs.mw_km.(i).(j) else t.inputs.Inputs.fiber_km.(i).(j)

(* Descending pair order is load-bearing: it fixes the adjacency order
   of the site graph, hence which of two equal-length routes Dijkstra
   keeps. *)
let edges t =
  let n = Inputs.n_sites t.inputs in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if hop_km t i j < infinity then acc := (i, j) :: !acc
    done
  done;
  Array.of_list !acc

let routes t ~demands =
  let n = Inputs.n_sites t.inputs in
  let es = edges t in
  let g =
    Graph.of_edges ~n (Array.map fst es) (Array.map snd es)
      (Array.map (fun (i, j) -> hop_km t i j) es)
  in
  let commodities =
    List.filter
      (fun (_, targets) -> not (List.is_empty targets))
      (List.init n (fun s ->
           (s, List.filter (fun d -> d <> s && demands.(s).(d) > 0.0) (List.init n Fun.id))))
  in
  let rows = Dijkstra.all_pairs_results g ~sources:(Array.of_list (List.map fst commodities)) in
  List.concat
    (List.mapi
       (fun k (s, targets) ->
         List.filter_map
           (fun d ->
             match Dijkstra.path rows.(k) ~dst:d with
             | [] -> None
             | path -> Some ((s, d), Array.of_list path))
           targets)
       commodities)
