module Hops = Cisp_towers.Hops
module Capacity_rf = Cisp_rf.Capacity
module Graph = Cisp_graph.Graph
module Dijkstra = Cisp_graph.Dijkstra

type link_plan = { link : int * int; load_gbps : float; series : int; hops : int }

type plan = {
  links : link_plan list;
  mw_carried_fraction : float;
  hops_total : int;
  hop_classes : (int * int) list;
  radios : int;
  new_towers : int;
  rented_towers : int;
}


(* Site-level routing graph: complete fiber mesh plus built MW links. *)
let routing_graph (inputs : Inputs.t) (topo : Topology.t) =
  let n = Inputs.n_sites inputs in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if inputs.fiber_km.(i).(j) < infinity then
        Graph.add_undirected g i j inputs.fiber_km.(i).(j)
    done
  done;
  List.iter
    (fun (i, j) -> Graph.add_undirected g i j inputs.mw_km.(i).(j))
    topo.Topology.built;
  g

(* Weight of the cheapest parallel edge u -> v — exactly the step a
   shortest path takes between consecutive nodes (relaxation keeps the
   minimum of parallel edges). *)
let min_edge_weight g u v =
  List.fold_left
    (fun best (e : Graph.edge) -> if e.Graph.dst = v then Float.min best e.Graph.weight else best)
    infinity (Graph.succ g u)

(* A path step u -> v rides the MW link iff the pair is built and the
   MW length is the (tolerance-matched) cheapest medium — same
   predicate the prev-tree walks used on [dist v -. dist u]. *)
let mw_step inputs (topo : Topology.t) g u v =
  Topology.is_built topo u v
  && Float.abs (min_edge_weight g u v -. inputs.Inputs.mw_km.(u).(v)) < 1e-6

(* Route every positive-demand commodity over its shortest path (one
   pool-parallel Dijkstra per source with demand) and hand each
   (s, t, demand, node path) to [f]. *)
let iter_demand_routes g ~demands ~f =
  let n = Array.length demands in
  let demand s t = t <> s && demands.(s).(t) > 0.0 in
  let has_demand s = List.exists (demand s) (List.init n Fun.id) in
  let sources = Array.of_list (List.filter has_demand (List.init n Fun.id)) in
  let rows = Dijkstra.all_pairs_results g ~sources in
  Array.iteri
    (fun k s ->
      for t = 0 to n - 1 do
        if demand s t then
          match Dijkstra.path rows.(k) ~dst:t with
          | [] -> ()
          | path -> f s t demands.(s).(t) path
      done)
    sources

let rec iter_steps f = function
  | u :: (v :: _ as rest) ->
    f u v;
    iter_steps f rest
  | _ -> ()

let route_loads (inputs : Inputs.t) (topo : Topology.t) ~aggregate_gbps =
  let demands = Cisp_traffic.Matrix.scale_to_gbps inputs.traffic ~aggregate_gbps in
  let g = routing_graph inputs topo in
  (* Loads are tracked per direction: MW links are duplex, so the
     binding figure for capacity is the busier direction. *)
  let loads : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  iter_demand_routes g ~demands ~f:(fun _s _t h path ->
      iter_steps
        (fun u v ->
          if mw_step inputs topo g u v then
            Hashtbl.replace loads (u, v)
              (h +. Option.value (Hashtbl.find_opt loads (u, v)) ~default:0.0))
        path);
  let directional (i, j) =
    Float.max
      (Option.value (Hashtbl.find_opt loads (i, j)) ~default:0.0)
      (Option.value (Hashtbl.find_opt loads (j, i)) ~default:0.0)
  in
  List.map (fun pair -> (pair, directional pair)) topo.Topology.built

let mw_fraction (inputs : Inputs.t) (topo : Topology.t) =
  (* Fraction of (normalized) traffic whose shortest path uses >= 1 MW link. *)
  let g = routing_graph inputs topo in
  let mw = ref 0.0 and all = ref 0.0 in
  iter_demand_routes g ~demands:inputs.traffic ~f:(fun _s _t h path ->
      all := !all +. h;
      let used = ref false in
      iter_steps (fun u v -> if mw_step inputs topo g u v then used := true) path;
      if !used then mw := !mw +. h);
  if Float.equal !all 0.0 then 0.0 else !mw /. !all

let link_hops (inputs : Inputs.t) (i, j) =
  match inputs.Inputs.mw_links.(i).(j) with
  | Some l -> List.length l.Hops.node_path - 1
  | None ->
    (* Synthetic instances: assume a 60 km mean hop. *)
    max 1 (int_of_float (Float.ceil (inputs.mw_km.(i).(j) /. 60.0)))

let link_hop_pairs (inputs : Inputs.t) (i, j) =
  match inputs.Inputs.mw_links.(i).(j) with
  | Some l -> Hops.hops_of_link l
  | None -> List.init (link_hops inputs (i, j)) (fun k -> (-1 - k, -2 - k))

let spare_from_registry (h : Hops.t) =
  let grid =
    Cisp_geo.Grid.of_list ~cell_deg:0.25
      (Array.to_list
         (Array.mapi (fun k (tw : Cisp_towers.Tower.t) -> (tw.position, k)) h.Hops.towers))
  in
  fun u v ->
    if u < 0 || v < 0 then 0
    else begin
      let mid = Cisp_geo.Geodesy.midpoint (Hops.node_position h u) (Hops.node_position h v) in
      let count = ref 0 in
      Cisp_geo.Grid.iter_nearby grid mid ~radius_km:15.0 (fun _ _ -> incr count);
      (* Each extra series needs towers at both ends; assume half the
         nearby towers are usable and two are needed per series. *)
      min 8 (!count / 4)
    end

let plan ?spare_series_at_hop (inputs : Inputs.t) (topo : Topology.t) ~aggregate_gbps =
  Cisp_util.Telemetry.with_span "capacity.plan" (fun () ->
  let spare = match spare_series_at_hop with Some f -> f | None -> fun _ _ -> 0 in
  let loads = route_loads inputs topo ~aggregate_gbps in
  let links =
    List.map
      (fun ((i, j), load_gbps) ->
        let series = max 1 (Capacity_rf.series_for_gbps (Float.max load_gbps 1e-9)) in
        { link = (i, j); load_gbps; series; hops = link_hops inputs (i, j) })
      loads
  in
  let hop_classes = Hashtbl.create 8 in
  let radios = ref 0 in
  let new_towers = ref 0 in
  let rented = ref 0 in
  let hops_total = ref 0 in
  List.iter
    (fun lp ->
      let i, j = lp.link in
      radios := !radios + (lp.hops * lp.series);
      hops_total := !hops_total + lp.hops;
      (* Base series: interior towers along the link, rented. *)
      (match inputs.Inputs.mw_links.(i).(j) with
      | Some l -> rented := !rented + l.Hops.tower_count
      | None -> rented := !rented + lp.hops - 1);
      let extra = lp.series - 1 in
      List.iter
        (fun (u, v) ->
          let sp = spare u v in
          let reused = min extra sp in
          let new_per_end = max 0 (extra - sp) in
          rented := !rented + (2 * reused);
          new_towers := !new_towers + (2 * new_per_end);
          Hashtbl.replace hop_classes new_per_end
            (1 + Option.value (Hashtbl.find_opt hop_classes new_per_end) ~default:0))
        (link_hop_pairs inputs lp.link))
    links;
  let classes = Cisp_util.Tbl.sorted_bindings ~compare:Int.compare hop_classes in
  if Cisp_util.Telemetry.enabled () then begin
    Cisp_util.Telemetry.add "capacity.links" (List.length links);
    Cisp_util.Telemetry.add "capacity.radios" !radios
  end;
  {
    links;
    mw_carried_fraction = mw_fraction inputs topo;
    hops_total = !hops_total;
    hop_classes = classes;
    radios = !radios;
    new_towers = !new_towers;
    rented_towers = !rented + !new_towers (* new towers also incur upkeep ~ rent *);
  })

let total_cost_usd cost plan =
  Cost.total_usd cost ~radios:plan.radios ~new_towers:plan.new_towers
    ~rented_towers:plan.rented_towers

let cost_per_gb cost plan ~aggregate_gbps =
  Cost.cost_per_gb cost ~total_usd:(total_cost_usd cost plan) ~aggregate_gbps
