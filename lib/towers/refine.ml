module Rng = Cisp_util.Rng
module Geodesy = Cisp_geo.Geodesy
module Graph = Cisp_graph.Graph
module Dijkstra = Cisp_graph.Dijkstra

type knowledge = Unknown | Acquired of float | Rejected

(* The acquisition prior (paper §6.5): the chance a tower can be
   rented, the available-height fraction's uniform bounds, and the
   Monte-Carlo seed. *)
let acquisition_prob (t : Tower.t) =
  match t.source with Tower.Rental -> 0.85 | Tower.City -> 0.7 | Tower.Fcc -> 0.6

let height_lo = 0.4
let height_hi = 1.0
let seed = 17

type t = {
  hops : Hops.t;
  knowledge : knowledge array;         (* per registry tower *)
  (* Swathe subgraph: nodes are [0] = src site, [1] = dst site,
     [2..] = towers; [sub_tower.(k)] is the registry index of subgraph
     node k + 2. *)
  sub_tower : int array;
  edges : (int * int * float) list;    (* subgraph edges *)
  n_sub : int;
}

let swathe_km = 60.0

let create ~hops ~src ~dst =
  let sites = hops.Hops.sites in
  let a = sites.(src).Cisp_data.City.coord and b = sites.(dst).Cisp_data.City.coord in
  let d_ab = Geodesy.distance_km a b in
  let in_swathe p =
    Geodesy.distance_km a p <= d_ab +. 80.0
    && Geodesy.distance_km b p <= d_ab +. 80.0
    && Geodesy.cross_track_km p ~path_start:a ~path_end:b <= swathe_km
  in
  (* Select towers in the swathe and index them. *)
  let towers = hops.Hops.towers in
  let selected = ref [] in
  Array.iteri (fun k (tw : Tower.t) -> if in_swathe tw.position then selected := k :: !selected) towers;
  let sub_tower = Array.of_list (List.rev !selected) in
  let node_of = Hashtbl.create (Array.length sub_tower) in
  (* subgraph node ids: 0 = src, 1 = dst, 2.. towers *)
  Hashtbl.replace node_of src 0;
  Hashtbl.replace node_of dst 1;
  Array.iteri (fun k reg -> Hashtbl.replace node_of (Hops.tower_node hops reg) (k + 2)) sub_tower;
  (* Pull the relevant edges out of the full hop graph once. *)
  let edges = ref [] in
  (* fixed node order so the subgraph's edge order (and any
     equal-length tie-breaks downstream) is reproducible *)
  Cisp_util.Tbl.iter_sorted ~compare:Int.compare
    (fun old_node sub_node ->
      Graph.iter_succ hops.Hops.graph old_node (fun e ->
          match Hashtbl.find_opt node_of e.Graph.dst with
          | Some sub_dst when sub_node < sub_dst ->
            edges := (sub_node, sub_dst, e.Graph.weight) :: !edges
          | Some _ | None -> ()))
    node_of;
  {
    hops;
    knowledge = Array.make (Array.length towers) Unknown;
    sub_tower;
    edges = !edges;
    n_sub = Array.length sub_tower + 2;
  }

let confirm t ~tower k = t.knowledge.(tower) <- k

(* Height fraction a hop of length [d] requires of both towers. *)
let required_fraction t d =
  let range = t.hops.Hops.config.Hops.los_params.Cisp_rf.Los.max_range_km in
  Float.min 0.8 (0.25 +. (0.5 *. d /. range))

(* Shortest path in the subgraph keeping only usable towers.
   [usable k] decides for subgraph tower node k+2; sites always pass.
   Heights: [height k] gives the tower's available fraction. *)
let shortest t ~usable ~height =
  let g = Graph.create t.n_sub in
  List.iter
    (fun (u, v, w) ->
      let ok node =
        if node < 2 then true
        else begin
          let k = node - 2 in
          usable k && height k >= required_fraction t w
        end
      in
      if ok u && ok v then Graph.add_undirected g u v w)
    t.edges;
  match Dijkstra.shortest_path g ~src:0 ~dst:1 with
  | None -> None
  | Some (d, path) ->
    (* Translate back to registry tower indices (sites as -1 / -2). *)
    let translate = function
      | 0 -> -1
      | 1 -> -2
      | n -> t.sub_tower.(n - 2)
    in
    Some (d, List.map translate path)

(* One Monte-Carlo draw: a confirmed tower keeps its ground truth, an
   unknown one is acquired with its prior probability at a uniform
   height fraction; the shortest path over what the draw left usable. *)
let draw t rng =
  let n = Array.length t.sub_tower in
  let ok = Array.make n false and h = Array.make n 0.0 in
  Array.iteri
    (fun k reg ->
      match t.knowledge.(reg) with
      | Rejected -> ()
      | Acquired hf ->
        ok.(k) <- true;
        h.(k) <- hf
      | Unknown ->
        let tw = t.hops.Hops.towers.(reg) in
        if Rng.float rng 1.0 < acquisition_prob tw then begin
          ok.(k) <- true;
          h.(k) <- Rng.uniform rng height_lo height_hi
        end)
    t.sub_tower;
  shortest t ~usable:(fun k -> ok.(k)) ~height:(fun k -> h.(k))

let sample_paths ?(samples = 200) t =
  let rng = Rng.create seed in
  let found : (int list, float) Hashtbl.t = Hashtbl.create 32 in
  for _ = 1 to samples do
    match draw t rng with
    | None -> ()
    | Some (d, path) ->
      (match Hashtbl.find_opt found path with
      | Some d' when d' <= d -> ()
      | _ -> Hashtbl.replace found path d)
  done;
  (* equal-length paths tie-break on the path itself, not table order *)
  Cisp_util.Tbl.sorted_bindings found
  |> List.map (fun (path, d) -> (d, path))
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)

type stats = {
  viability : float;
  length_p50_km : float;
  length_p95_km : float;
  distinct_paths : int;
}

let stats ?(samples = 200) t =
  let rng = Rng.create (seed + 1) in
  let lengths = ref [] in
  let hits = ref 0 in
  let paths : (int list, unit) Hashtbl.t = Hashtbl.create 32 in
  for _ = 1 to samples do
    match draw t rng with
    | None -> ()
    | Some (d, path) ->
      incr hits;
      lengths := d :: !lengths;
      Hashtbl.replace paths path ()
  done;
  let ls = Array.of_list !lengths in
  {
    viability = float_of_int !hits /. float_of_int samples;
    length_p50_km = (if Array.length ls = 0 then nan else Cisp_util.Stats.percentile ls 50.0);
    length_p95_km = (if Array.length ls = 0 then nan else Cisp_util.Stats.percentile ls 95.0);
    distinct_paths = Hashtbl.length paths;
  }

let committed_path t =
  let usable k =
    match t.knowledge.(t.sub_tower.(k)) with Acquired _ -> true | Unknown | Rejected -> false
  in
  let height k =
    match t.knowledge.(t.sub_tower.(k)) with Acquired h -> h | Unknown | Rejected -> 0.0
  in
  shortest t ~usable ~height
