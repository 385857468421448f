module Hops = Cisp_towers.Hops
module Capacity_rf = Cisp_rf.Capacity

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


(* One routing pass for both figures a plan needs: per-direction
   loads on the MW links (links are duplex, so the binding figure for
   capacity is the busier direction) and the fraction of (normalized)
   traffic whose route rides at least one MW link.  Every commodity
   with traffic is routed once; a positive aggregate keeps exactly
   those commodities positive in the scaled matrix. *)
let carried (inputs : Inputs.t) (topo : Topology.t) ~aggregate_gbps =
  if aggregate_gbps < 0.0 then invalid_arg "Capacity: aggregate_gbps < 0";
  let demands = Cisp_traffic.Matrix.scale_to_gbps inputs.traffic ~aggregate_gbps in
  let loads : (int * int, float) Hashtbl.t = Hashtbl.create 64 in
  let mw = ref 0.0 and all = ref 0.0 in
  List.iter
    (fun ((s, t), route) ->
      let h = inputs.traffic.(s).(t) in
      all := !all +. h;
      let used = ref false in
      for k = 0 to Array.length route - 2 do
        let u = route.(k) and v = route.(k + 1) in
        if Topology.rides_mw topo u v then begin
          used := true;
          Hashtbl.replace loads (u, v)
            (demands.(s).(t) +. Option.value (Hashtbl.find_opt loads (u, v)) ~default:0.0)
        end
      done;
      if !used then mw := !mw +. h)
    (Topology.routes topo ~demands:inputs.traffic);
  let directional (i, j) =
    Float.max
      (Option.value (Hashtbl.find_opt loads (i, j)) ~default:0.0)
      (Option.value (Hashtbl.find_opt loads (j, i)) ~default:0.0)
  in
  ( List.map (fun pair -> (pair, directional pair)) topo.Topology.built,
    if Float.equal !all 0.0 then 0.0 else !mw /. !all )

let route_loads inputs topo ~aggregate_gbps = fst (carried inputs topo ~aggregate_gbps)

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
  let loads, mw_carried_fraction = carried inputs topo ~aggregate_gbps in
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
    mw_carried_fraction;
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
