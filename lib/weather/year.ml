module Hops = Cisp_towers.Hops
module Inputs = Cisp_design.Inputs
module Topology = Cisp_design.Topology

type pair_summary = { best : float; median : float; p99 : float; worst : float; fiber : float }

type result = {
  intervals : int;
  mean_failed_links : float;
  per_pair : pair_summary array;
}

let run ?(seed = 99) ?(intervals = 365) ~climate ~hops (inputs : Inputs.t) (topo : Topology.t) =
  Cisp_util.Telemetry.with_span "weather.year" (fun () ->
  let n = Inputs.n_sites inputs in
  let base = Topology.fiber_baseline inputs in
  let built = Array.of_list topo.Topology.built in
  let links =
    Array.map
      (fun (i, j) ->
        match inputs.Inputs.mw_links.(i).(j) with
        | Some l -> ((i, j), Some l)
        | None -> ((i, j), None))
      built
  in
  let pairs = ref [] in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      if inputs.traffic.(s).(t) +. inputs.traffic.(t).(s) > 0.0 && inputs.geodesic_km.(s).(t) > 0.0
      then pairs := (s, t) :: !pairs
    done
  done;
  let pairs = Array.of_list (List.rev !pairs) in
  let np = Array.length pairs in
  (* Interval-major storage: each trial allocates and owns a whole
     row.  The old pair-major matrix had parallel trials writing
     adjacent floats of every row (column [interval] of each pair),
     false-sharing each row's cache lines across all domains for the
     length of the run. *)
  let samples = Array.make intervals [||] in
  let failed_per_interval = Array.make intervals 0 in
  let pos = Hops.node_position hops in
  (* A single trial costs roughly a rain-field sample plus one O(n^2)
     metric relaxation per surviving link — batch a few per claim of
     the pool's chunk counter. *)
  let trial_chunk = 4 in
  (* Each interval is an independent trial: its rain field is a pure
     function of (seed, day) — its own RNG stream — and it writes only
     its own row of [samples], so the trials run in parallel with
     bit-identical results at any pool width.  The failed-link counts
     accumulate per chunk and reduce over fixed chunk boundaries
     (width-independent), keeping the total exact and deterministic. *)
  let failed_total =
    Cisp_util.Pool.fold_range (Cisp_util.Pool.get ()) ~n:intervals ~min_chunk:trial_chunk
      ~init:0 ~merge:( + )
      ~map:(fun ~lo ~hi ->
        let failed_in_chunk = ref 0 in
        for interval = lo to hi - 1 do
          let day = interval * 365 / intervals in
          let field = Rainfield.sample ~seed climate ~day in
          (* Distances over surviving links. *)
          let d = ref base in
          let failed_here = ref 0 in
          Array.iter
            (fun ((i, j), link) ->
              let failed =
                match link with
                | Some l -> Failure.link_failed ~node_position:pos field l
                | None ->
                  (* Synthetic instance: approximate with a single hop at the
                     link midpoint. *)
                  let rain =
                    Rainfield.rain_at field
                      (Cisp_geo.Geodesy.midpoint inputs.sites.(i).Cisp_data.City.coord
                         inputs.sites.(j).Cisp_data.City.coord)
                  in
                  Failure.hop_failed ~rain_mm_h:rain ~d_km:60.0 ()
              in
              if failed then incr failed_here
              else d := Topology.distances_incremental inputs !d (i, j))
            links;
          failed_per_interval.(interval) <- !failed_here;
          failed_in_chunk := !failed_in_chunk + !failed_here;
          let dm = !d in
          let row = Array.make np 0.0 in
          Array.iteri
            (fun k (s, t) -> row.(k) <- dm.(s).(t) /. inputs.geodesic_km.(s).(t))
            pairs;
          samples.(interval) <- row
        done;
        !failed_in_chunk)
  in
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
