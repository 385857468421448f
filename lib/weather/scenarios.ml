module Hops = Cisp_towers.Hops
module Inputs = Cisp_design.Inputs
module Topology = Cisp_design.Topology
module Routing = Cisp_sim.Routing
module Geodesy = Cisp_geo.Geodesy

type spec =
  | Uniform_rain of { mm_h : float }
  | Rain_replay of { climate : Rainfield.climate; intervals : int }
  | Hurricane of {
      center : Cisp_geo.Coord.t;
      track_bearing_deg : float;
      step_km : float;
      intervals : int;
    }
  | Correlated_towers of { blobs : int; radius_km : float; intervals : int }

let spec_name = function
  | Uniform_rain _ -> "uniform-rain"
  | Rain_replay _ -> "rain-replay"
  | Hurricane _ -> "hurricane"
  | Correlated_towers _ -> "correlated-towers"

let spec_intervals = function
  | Uniform_rain _ -> 1
  | Rain_replay { intervals; _ } | Hurricane { intervals; _ }
  | Correlated_towers { intervals; _ } ->
    intervals

type scheme_summary = {
  scheme : string;
  availability : float;
  mean_stretch : float;
  p99_stretch : float;
  worst_stretch : float;
}

type result = {
  name : string;
  intervals : int;
  mean_failed_links : float;
  schemes : scheme_summary list;
}

let default_schemes ~k =
  [
    ("shortest-recompute", Routing.Shortest_path);
    (Printf.sprintf "failover-k%d" k, Routing.K_disjoint_failover k);
    (Printf.sprintf "split-k%d" k, Routing.K_disjoint_split k);
  ]

let standard_suite ?(intervals = 8) ~climate ~hurricane_center () =
  [
    Uniform_rain { mm_h = 110.0 };
    Rain_replay { climate; intervals };
    Hurricane { center = hurricane_center; track_bearing_deg = 40.0; step_km = 60.0; intervals };
    Correlated_towers { blobs = 2; radius_km = 150.0; intervals };
  ]

let surviving ~seed ~hops (topo : Topology.t) spec iv =
  let inputs = topo.Topology.inputs in
  let sites = inputs.Inputs.sites in
  let pos = Hops.node_position hops in
  let fails_under field ((i, j) as pair) =
    Failure.built_link_failed ~node_position:pos ~sites field (pair, inputs.Inputs.mw_links.(i).(j))
  in
  let failed =
    match spec with
    | Uniform_rain { mm_h } -> fails_under (Rainfield.uniform ~mm_h)
    | Rain_replay { climate; intervals } ->
      let day = iv * 365 / intervals in
      fails_under (Rainfield.sample ~seed climate ~day)
    | Hurricane { center; track_bearing_deg; step_km; _ } ->
      let eye =
        Geodesy.destination center ~bearing_deg:track_bearing_deg
          ~distance_km:(step_km *. float_of_int iv)
      in
      fails_under (Rainfield.hurricane ~center:eye)
    | Correlated_towers { blobs; radius_km; _ } -> (
      let rng = Cisp_util.Rng.create (seed + (iv * 7919)) in
      let n_towers = Array.length hops.Hops.towers in
      let centers =
        Array.init blobs (fun _ ->
            if n_towers > 0 then
              hops.Hops.towers.(Cisp_util.Rng.int rng n_towers).Cisp_towers.Tower.position
            else sites.(Cisp_util.Rng.int rng (Array.length sites)).Cisp_data.City.coord)
      in
      let hit p = Array.exists (fun c -> Geodesy.distance_km c p <= radius_km) centers in
      fun (i, j) ->
        match inputs.Inputs.mw_links.(i).(j) with
        | Some l ->
          (* A regional outage takes down the towers inside the blob;
             a link dies when any of its relay towers does. *)
          List.exists (fun node -> node >= hops.Hops.n_sites && hit (pos node)) l.Hops.node_path
        | None ->
          hit (Geodesy.midpoint sites.(i).Cisp_data.City.coord sites.(j).Cisp_data.City.coord))
  in
  let down = List.filter failed topo.Topology.built in
  (List.fold_left Topology.remove topo down, List.length down)

let run ?(seed = 99) ~schemes ~hops ~(model : Routing.network_model) ~demands_gbps spec =
  let intervals = spec_intervals spec in
  if intervals <= 0 then invalid_arg "Scenarios.run: intervals <= 0";
  (match schemes with [] -> invalid_arg "Scenarios.run: no schemes" | _ :: _ -> ());
  let inputs = model.Routing.inputs in
  let n = Inputs.n_sites inputs in
  (* Ordered commodities, matching the routing tables' keys. *)
  let commodities = ref [] in
  for s = n - 1 downto 0 do
    for t = n - 1 downto 0 do
      if s <> t && demands_gbps.(s).(t) > 0.0 && inputs.Inputs.geodesic_km.(s).(t) > 0.0 then
        commodities := (s, t) :: !commodities
    done
  done;
  let commodities = Array.of_list !commodities in
  if Array.length commodities = 0 then invalid_arg "Scenarios.run: no commodities";
  Cisp_util.Telemetry.with_span "scenarios.run" (fun () ->
      let nc = Array.length commodities in
      let n_schemes = List.length schemes in
      (* Precompute the fair-weather multipath tables once, one per k
         shared by that k's failover and split schemes; single-path
         schemes instead model global recompute and re-route inside
         each interval.  The tables are read-only in the workers. *)
      let by_k = ref [] in
      let tables =
        Array.of_list
          (List.map
             (fun (_, sch) ->
               match sch with
               | Routing.K_disjoint_split k | Routing.K_disjoint_failover k ->
                 Some
                   (match List.assoc_opt k !by_k with
                   | Some table -> table
                   | None ->
                     let table = Routing.multipath_table model ~k ~demands_gbps in
                     by_k := (k, table) :: !by_k;
                     table)
               | Routing.Shortest_path | Routing.Min_max_utilization
               | Routing.Throughput_optimal ->
                 None)
             schemes)
      in
      let scheme_list = Array.of_list (List.map snd schemes) in
      (* Interval-major storage: samples.(iv).((si * nc) + c) is the
         stretch of commodity [c] under scheme [si] in interval [iv];
         nan = unavailable.  Each interval's task allocates and owns
         its whole row — the old scheme-major matrix had parallel
         intervals writing adjacent floats of every (scheme, commodity)
         row, false-sharing each row's cache lines across all
         domains. *)
      let samples = Array.make intervals [||] in
      let failed_per_interval = Array.make intervals 0 in
      (* Intervals are independent trials: each derives its outage set
         purely from (seed, interval) and writes only its own row of
         [samples] and slot of [failed_per_interval], so the loop is
         bit-identical at any pool width. *)
      Cisp_util.Pool.parallel_for ~n:intervals (fun iv ->
          let row = Array.make (n_schemes * nc) Float.nan in
          let up, failed_here = surviving ~seed ~hops model.Routing.topology spec iv in
          failed_per_interval.(iv) <- failed_here;
          let up_model = { model with Routing.topology = up } in
          Array.iteri
            (fun si sch ->
              match tables.(si) with
              | Some table ->
                Array.iteri
                  (fun c (s, t) ->
                    row.((si * nc) + c) <-
                      (match Hashtbl.find_opt table (s, t) with
                      | None -> Float.nan
                      | Some mp ->
                        let survivors = Routing.select_routes sch mp ~up in
                        if Array.length survivors = 0 then Float.nan
                        else
                          let lat =
                            Array.fold_left
                              (fun acc (r, w) -> acc +. (w *. r.Routing.latency_km))
                              0.0 survivors
                          in
                          lat /. inputs.Inputs.geodesic_km.(s).(t)))
                  commodities
              | None ->
                let table = Routing.paths up_model sch ~demands_gbps in
                Array.iteri
                  (fun c (s, t) ->
                    row.((si * nc) + c) <-
                      (match Hashtbl.find_opt table (s, t) with
                      | None -> Float.nan
                      | Some route ->
                        Routing.route_latency_km up_model route
                        /. inputs.Inputs.geodesic_km.(s).(t)))
                  commodities)
            scheme_list;
          samples.(iv) <- row);
      let failed_total = ref 0 in
      Array.iter (fun c -> failed_total := !failed_total + c) failed_per_interval;
      if Cisp_util.Telemetry.enabled () then begin
        Cisp_util.Telemetry.add "scenarios.intervals" intervals;
        Cisp_util.Telemetry.add "scenarios.commodities" nc;
        Array.iter
          (fun c -> Cisp_util.Telemetry.observe "scenarios.failed_links" (float_of_int c))
          failed_per_interval
      end;
      let weights = Array.map (fun (s, t) -> demands_gbps.(s).(t)) commodities in
      let summaries =
        List.mapi
          (fun si (label, _) ->
            let avail_w = ref 0.0 and total_w = ref 0.0 in
            let stretch_w = ref 0.0 in
            let observed = ref [] in
            for c = 0 to nc - 1 do
              for iv = 0 to intervals - 1 do
                let w = weights.(c) in
                total_w := !total_w +. w;
                let x = samples.(iv).((si * nc) + c) in
                if not (Float.is_nan x) then begin
                  avail_w := !avail_w +. w;
                  stretch_w := !stretch_w +. (w *. x);
                  observed := x :: !observed
                end
              done
            done;
            let observed = Array.of_list !observed in
            let availability = if !total_w > 0.0 then !avail_w /. !total_w else 0.0 in
            let mean_stretch = if !avail_w > 0.0 then !stretch_w /. !avail_w else Float.nan in
            let p99_stretch =
              if Array.length observed = 0 then Float.nan
              else Cisp_util.Stats.percentile observed 99.0
            in
            let worst_stretch =
              if Array.length observed = 0 then Float.nan
              else snd (Cisp_util.Stats.min_max observed)
            in
            { scheme = label; availability; mean_stretch; p99_stretch; worst_stretch })
          schemes
      in
      {
        name = spec_name spec;
        intervals;
        mean_failed_links = float_of_int !failed_total /. float_of_int intervals;
        schemes = summaries;
      })

let frontier_csv results =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "scenario,scheme,availability,mean_stretch,p99_stretch,worst_stretch,mean_failed_links\n";
  List.iter
    (fun r ->
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%.6f,%.6f,%.6f,%.6f,%.4f\n" r.name s.scheme s.availability
               s.mean_stretch s.p99_stretch s.worst_stretch r.mean_failed_links))
        r.schemes)
    results;
  Buffer.contents buf
