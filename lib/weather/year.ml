module Inputs = Cisp_design.Inputs
module Topology = Cisp_design.Topology

type pair_summary = { best : float; median : float; p99 : float; worst : float; fiber : float }

type result = {
  intervals : int;
  mean_failed_links : float;
  per_pair : pair_summary array;
}

let run ?(seed = 99) ?(intervals = 365) ~climate ~hops (inputs : Inputs.t) (topo : Topology.t) =
  if inputs != topo.Topology.inputs then invalid_arg "Year.run: topology built over other inputs";
  if intervals <= 0 then invalid_arg "Year.run: intervals <= 0";
  let n = Inputs.n_sites inputs in
  let pairs = ref [] in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      if inputs.traffic.(s).(t) +. inputs.traffic.(t).(s) > 0.0 && inputs.geodesic_km.(s).(t) > 0.0
      then pairs := (s, t) :: !pairs
    done
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  let np = Array.length pairs in
  if np = 0 then invalid_arg "Year.run: no site pair with traffic";
  Cisp_util.Telemetry.with_span "weather.year" (fun () ->
  let base = Topology.fiber_baseline inputs in
  (* Interval-major storage: each trial allocates and owns a whole
     row.  A pair-major matrix would have parallel trials writing
     adjacent floats of every row, false-sharing its cache lines
     across all domains for the length of the run. *)
  let samples = Array.make intervals [||] in
  let failed_per_interval = Array.make intervals 0 in
  let storm = Scenarios.Rain_replay { climate; intervals } in
  (* Each interval is an independent trial: its outages are a pure
     function of (seed, interval) ({!Scenarios.surviving}), and it
     writes only its own row of [samples] and slot of
     [failed_per_interval], so the trials run in parallel with
     bit-identical results at any pool width. *)
  Cisp_util.Pool.parallel_for ~n:intervals
    (fun interval ->
      let up, failed_here = Scenarios.surviving ~seed ~hops topo storm interval in
      (* Distances over surviving links. *)
      let d =
        List.fold_left (fun d pair -> Topology.distances_incremental inputs d pair) base
          up.Topology.built
      in
      failed_per_interval.(interval) <- failed_here;
      let row = Array.make np 0.0 in
      Array.iteri
        (fun k (s, t) -> row.(k) <- d.(s).(t) /. inputs.geodesic_km.(s).(t))
        pairs;
      samples.(interval) <- row);
  let failed_total = Array.fold_left ( + ) 0 failed_per_interval in
  if Cisp_util.Telemetry.enabled () then begin
    Cisp_util.Telemetry.add "weather.intervals" intervals;
    Array.iter
      (fun c -> Cisp_util.Telemetry.observe "weather.failed_links" (float_of_int c))
      failed_per_interval
  end;
  let per_pair =
    Array.mapi
      (fun k (s, t) ->
        (* Gather pair [k]'s samples in interval order — the same
           multiset, in the same order, the pair-major layout held. *)
        let xs = Array.init intervals (fun interval -> samples.(interval).(k)) in
        let sorted = Array.copy xs in
        Array.sort Float.compare sorted;
        {
          best = sorted.(0);
          median = Cisp_util.Stats.percentile xs 50.0;
          p99 = Cisp_util.Stats.percentile xs 99.0;
          worst = sorted.(intervals - 1);
          fiber = base.(s).(t) /. inputs.geodesic_km.(s).(t);
        })
      pairs
  in
  {
    intervals;
    mean_failed_links = float_of_int failed_total /. float_of_int intervals;
    per_pair;
  })

let stretch_cdfs r =
  let cdf f = Cisp_util.Stats.cdf (Array.map f r.per_pair) in
  [
    ("best", cdf (fun p -> p.best));
    ("median", cdf (fun p -> p.median));
    ("p99", cdf (fun p -> p.p99));
    ("worst", cdf (fun p -> p.worst));
    ("fiber", cdf (fun p -> p.fiber));
  ]
