(* cISP command-line interface.

   Subcommands:
     design   - run the design pipeline and print the topology summary
     weather  - year-long weather sweep over a designed network
     econ     - the paper's cost-benefit table
     hft      - the Chicago-NJ HFT relay loss reconstruction *)

open Cmdliner
open Cisp

(* ---------- shared options ---------- *)

let region_conv =
  let parse = function
    | "us" -> Ok `Us
    | "europe" | "eu" -> Ok `Europe
    | s -> Error (`Msg (Printf.sprintf "unknown region %S (us | europe)" s))
  in
  let print ppf r = Format.pp_print_string ppf (match r with `Us -> "us" | `Europe -> "europe") in
  Arg.conv (parse, print)

let region_t =
  Arg.(value & opt region_conv `Us & info [ "region" ] ~docv:"REGION" ~doc:"us or europe")

let sites_t =
  Arg.(value & opt (some int) None & info [ "sites" ] ~docv:"N" ~doc:"Top-N population centers (default: all)")

let budget_t =
  Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"TOWERS" ~doc:"Tower budget (default: 27 per site)")

let gbps_t =
  Arg.(value & opt float 100.0 & info [ "gbps" ] ~docv:"GBPS" ~doc:"Aggregate capacity to provision")

let range_t =
  Arg.(value & opt float 100.0 & info [ "range" ] ~docv:"KM" ~doc:"Max microwave hop range")

let height_t =
  Arg.(value & opt float 1.0 & info [ "height-fraction" ] ~docv:"F" ~doc:"Usable fraction of tower height")

let geojson_t =
  Arg.(value & opt (some string) None & info [ "geojson" ] ~docv:"FILE" ~doc:"Write the designed network as GeoJSON")

(* Pool width for the parallel hot paths (APSP, candidate scoring, LOS
   sweeps, weather trials).  Results are bit-identical at any width;
   default: $(b,CISP_JOBS) or the recommended domain count. *)
let jobs_t =
  let doc = "Worker domains for the parallel hot paths (default: CISP_JOBS or all cores). \
             Results are independent of this setting." in
  Term.(
    const (fun jobs -> Option.iter Util.Pool.set_default_jobs jobs)
    $ Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc))

(* Observability: --trace streams a Chrome-trace JSONL file at exit,
   --metrics prints the span/counter summary.  Neither changes any
   result (the telemetry layer only observes). *)
let telemetry_t =
  let trace_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome-trace-compatible JSONL event log to $(docv) \
                (also honored via $(b,CISP_TRACE))")
  in
  let metrics_t =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print a telemetry summary (span timings, counters, distributions) at exit")
  in
  Term.(
    const (fun trace metrics ->
        Util.Telemetry.init_from_env ();
        Option.iter Util.Telemetry.enable_trace trace;
        if metrics then Util.Telemetry.enable_metrics ())
    $ trace_t $ metrics_t)

let finish_telemetry () = Util.Telemetry.finish ~ppf:Format.std_formatter ()

let config_of region sites range height =
  let base =
    match region with
    | `Us -> Design.Scenario.default_config
    | `Europe -> Design.Scenario.europe_config
  in
  { base with Design.Scenario.n_sites = sites; max_range_km = range; height_fraction = height }

let effective_budget budget sites =
  match budget with Some b -> b | None -> 27 * Array.length sites

(* ---------- design ---------- *)

let design_cmd =
  let run () () region sites budget gbps range height geojson =
    let config = config_of region sites range height in
    Printf.printf "building artifacts...\n%!";
    let a = Design.Scenario.artifacts ~config () in
    let budget = effective_budget budget a.Design.Scenario.sites in
    Printf.printf "designing (%d sites, %d-tower budget)...\n%!"
      (Array.length a.Design.Scenario.sites) budget;
    let r = Design.Scenario.full_run ~config ~budget ~aggregate_gbps:gbps () in
    let topo = r.Design.Scenario.topology and plan = r.Design.Scenario.plan in
    Printf.printf "links: %d   towers: %d   stretch: %.3f\n"
      (List.length topo.Design.Topology.built)
      topo.Design.Topology.cost r.Design.Scenario.stretch;
    Printf.printf "provisioned %.0f Gbps: %d hops, %d radios, %d new towers\n" gbps
      plan.Design.Capacity.hops_total plan.Design.Capacity.radios plan.Design.Capacity.new_towers;
    Printf.printf "cost per GB: $%.2f\n" r.Design.Scenario.cost_per_gb;
    (match geojson with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc
        (Design.Export.topology_with_plan_geojson topo.Design.Topology.inputs topo plan);
      close_out oc;
      Printf.printf "wrote %s\n" file);
    finish_telemetry ()
  in
  Cmd.v
    (Cmd.info "design" ~doc:"Design a cISP topology (paper sections 3-4)")
    Term.(
      const run $ jobs_t $ telemetry_t $ region_t $ sites_t $ budget_t $ gbps_t $ range_t
      $ height_t $ geojson_t)

(* ---------- weather ---------- *)

let weather_cmd =
  let intervals_t =
    Arg.(value & opt int 365 & info [ "intervals" ] ~docv:"N" ~doc:"Weather intervals over the year")
  in
  let run () () region sites budget intervals =
    let config = config_of region sites 100.0 1.0 in
    let a = Design.Scenario.artifacts ~config () in
    let inputs = Design.Scenario.population_inputs a in
    let budget = effective_budget budget a.Design.Scenario.sites in
    let topo = Design.Scenario.design inputs ~budget in
    let climate =
      match region with
      | `Us -> Weather.Rainfield.us_climate
      | `Europe -> Weather.Rainfield.eu_climate
    in
    let r = Weather.Year.run ~intervals ~climate ~hops:a.Design.Scenario.hops inputs topo in
    Printf.printf "%d intervals, %.1f failed links per interval (of %d built)\n"
      r.Weather.Year.intervals r.Weather.Year.mean_failed_links
      (List.length topo.Design.Topology.built);
    let med f = Util.Stats.median (Array.map f r.Weather.Year.per_pair) in
    Printf.printf "median pair stretch: best %.3f | p99 %.3f | worst %.3f | fiber %.3f\n"
      (med (fun p -> p.Weather.Year.best))
      (med (fun p -> p.Weather.Year.p99))
      (med (fun p -> p.Weather.Year.worst))
      (med (fun p -> p.Weather.Year.fiber));
    finish_telemetry ()
  in
  Cmd.v
    (Cmd.info "weather" ~doc:"Year-long precipitation sweep (paper section 6.1)")
    Term.(const run $ jobs_t $ telemetry_t $ region_t $ sites_t $ budget_t $ intervals_t)

(* ---------- scenarios ---------- *)

let scenarios_cmd =
  let intervals_t =
    Arg.(value & opt int 8 & info [ "intervals" ] ~docv:"N" ~doc:"Trials per multi-interval scenario")
  in
  let k_t =
    Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"Disjoint paths per commodity for the multipath schemes")
  in
  let csv_t =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Write the stretch/availability frontier as CSV")
  in
  let run () () region sites budget gbps intervals k csv =
    let config = config_of region sites 100.0 1.0 in
    let a = Design.Scenario.artifacts ~config () in
    let inputs = Design.Scenario.population_inputs a in
    let budget = effective_budget budget a.Design.Scenario.sites in
    let topo = Design.Scenario.design inputs ~budget in
    let spare = Design.Capacity.spare_from_registry a.Design.Scenario.hops in
    let plan = Design.Capacity.plan ~spare_series_at_hop:spare inputs topo ~aggregate_gbps:gbps in
    let model =
      { Sim.Routing.inputs; topology = topo;
        mw_gbps = Sim.Builder.provisioned_mw_gbps plan;
        fiber_gbps = Sim.Builder.default_config.Sim.Builder.fiber_gbps }
    in
    let demands =
      Traffic.Matrix.scale_to_gbps inputs.Design.Inputs.traffic ~aggregate_gbps:gbps
    in
    let climate =
      match region with
      | `Us -> Weather.Rainfield.us_climate
      | `Europe -> Weather.Rainfield.eu_climate
    in
    (* Aim the hurricane at the middle of the deployment. *)
    let hurricane_center =
      let n = Array.length a.Design.Scenario.sites in
      let lat = ref 0.0 and lon = ref 0.0 in
      Array.iter
        (fun c ->
          lat := !lat +. c.Data.City.coord.Geo.Coord.lat;
          lon := !lon +. c.Data.City.coord.Geo.Coord.lon)
        a.Design.Scenario.sites;
      Geo.Coord.make ~lat:(!lat /. float_of_int n) ~lon:(!lon /. float_of_int n)
    in
    let suite = Weather.Scenarios.standard_suite ~intervals ~climate ~hurricane_center () in
    let schemes = Weather.Scenarios.default_schemes ~k in
    let results =
      List.map
        (fun spec ->
          Weather.Scenarios.run ~schemes ~hops:a.Design.Scenario.hops ~model
            ~demands_gbps:demands spec)
        suite
    in
    Printf.printf "%-18s %-20s %-6s %-8s %-8s %-8s\n" "scenario" "scheme" "avail" "stretch" "p99" "worst";
    List.iter
      (fun r ->
        List.iter
          (fun s ->
            Printf.printf "%-18s %-20s %.4f %-8.3f %-8.3f %-8.3f\n" r.Weather.Scenarios.name
              s.Weather.Scenarios.scheme s.Weather.Scenarios.availability
              s.Weather.Scenarios.mean_stretch s.Weather.Scenarios.p99_stretch
              s.Weather.Scenarios.worst_stretch)
          r.Weather.Scenarios.schemes)
      results;
    (match csv with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Weather.Scenarios.frontier_csv results);
      close_out oc;
      Printf.printf "wrote %s\n" file);
    finish_telemetry ()
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:"Failure-scenario suite: stretch/availability frontier per routing scheme")
    Term.(
      const run $ jobs_t $ telemetry_t $ region_t $ sites_t $ budget_t $ gbps_t $ intervals_t
      $ k_t $ csv_t)

(* ---------- econ ---------- *)

let econ_cmd =
  let cost_t =
    Arg.(value & opt float 0.81 & info [ "cost-per-gb" ] ~docv:"USD" ~doc:"Network cost per GB")
  in
  let run cost_per_gb =
    Printf.printf "%-14s %-22s %s\n" "application" "value per GB" "exceeds cost?";
    List.iter
      (fun v ->
        Printf.printf "%-14s $%.2f - $%-14.2f %b\n" v.Apps.Econ.application
          v.Apps.Econ.value_per_gb.Apps.Econ.low v.Apps.Econ.value_per_gb.Apps.Econ.high
          v.Apps.Econ.exceeds_cost)
      (Apps.Econ.summary ~cost_per_gb)
  in
  Cmd.v (Cmd.info "econ" ~doc:"Cost-benefit table (paper section 8)") Term.(const run $ cost_t)

(* ---------- hft ---------- *)

let hft_cmd =
  let run () =
    let r = Weather.Hft.run () in
    Printf.printf "Chicago-NJ relay, %d trading minutes incl. a hurricane window:\n" r.Weather.Hft.minutes;
    Printf.printf "mean loss %.1f%%, median %.1f%% (paper: 16.1%% / 1.4%%)\n"
      (100.0 *. r.Weather.Hft.mean_loss) (100.0 *. r.Weather.Hft.median_loss);
    finish_telemetry ()
  in
  Cmd.v (Cmd.info "hft" ~doc:"HFT relay loss reconstruction (paper section 2)") Term.(const run $ telemetry_t)

let () =
  let doc = "cISP: a speed-of-light ISP designer (NSDI 2022 reproduction)" in
  let cmd =
    Cmd.group (Cmd.info "cisp" ~doc) [ design_cmd; weather_cmd; scenarios_cmd; econ_cmd; hft_cmd ]
  in
  (* The library rejects unusable inputs (say, --sites 0) with
     [Invalid_argument]: that is a usage error, reported in one line,
     not an internal one. *)
  exit
    (try Cmd.eval ~catch:false cmd
     with Invalid_argument msg ->
       prerr_endline ("cisp: " ^ msg);
       Cmd.Exit.cli_error)
