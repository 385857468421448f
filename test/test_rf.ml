open Cisp_rf

let check_float eps = Alcotest.(check (float eps))

(* ---------- Fresnel / bulge geometry ---------- *)

let test_fresnel_midpoint_matches_paper () =
  (* Paper: h_Fres ~ 8.7 m sqrt(D/1km) / sqrt(f/1GHz). *)
  let approx d f = 8.7 *. sqrt (d /. f) in
  List.iter
    (fun (d, f) ->
      let exact = Fresnel.midpoint_fresnel_m ~f_ghz:f ~d_km:d () in
      check_float 0.5 (Printf.sprintf "D=%.0f f=%.0f" d f) (approx d f) exact)
    [ (10.0, 11.0); (50.0, 11.0); (100.0, 11.0); (100.0, 6.0); (60.0, 18.0) ]

let test_bulge_midpoint_matches_paper () =
  (* Paper: h_Earth ~ (1/50K)(D/1km)^2 metres.  The 1/50 is itself an
     approximation of 1000/(8 R_km) = 1/50.97, so allow ~2.5%. *)
  List.iter
    (fun d ->
      let exact = Fresnel.midpoint_bulge_m ~k:1.3 ~d_km:d () in
      let approx = d *. d /. (50.0 *. 1.3) in
      check_float ((0.025 *. approx) +. 0.1) (Printf.sprintf "D=%.0f" d) approx exact)
    [ 10.0; 50.0; 100.0 ]

let test_bulge_100km_value () =
  (* D=100 km, K=1.3, R=6371 km: D^2/(2KR) = 150.9 m. *)
  check_float 1.0 "100km bulge" 150.9 (Fresnel.midpoint_bulge_m ~d_km:100.0 ())

let test_fresnel_symmetric_and_zero_at_ends () =
  let r1 = Fresnel.fresnel_radius_m ~d1_km:20.0 ~d2_km:80.0 () in
  let r2 = Fresnel.fresnel_radius_m ~d1_km:80.0 ~d2_km:20.0 () in
  check_float 1e-9 "symmetric" r1 r2;
  check_float 1e-9 "zero at endpoint" 0.0 (Fresnel.fresnel_radius_m ~d1_km:0.0 ~d2_km:100.0 ())

let test_clearance_monotone_in_distance () =
  let c d = Fresnel.required_clearance_m ~d1_km:(d /. 2.) ~d2_km:(d /. 2.) () in
  Alcotest.(check bool) "monotone" true (c 20.0 < c 50.0 && c 50.0 < c 100.0)

let test_pair_coeffs_match_clearance () =
  (* The hoisted per-pair form [bulge_c u + fresnel_c sqrt u] is the
     same algebra as the pointwise clearance (at its default K 1.3 and
     11 GHz); agreement to float rounding across distances and
     positions. *)
  let out = Float.Array.make 2 0.0 in
  List.iter
    (fun d_km ->
      Fresnel.pair_coeffs_into ~k:1.3 ~f_ghz:11.0 ~d_km ~out;
      let bulge_c = Float.Array.get out 0 and fres_c = Float.Array.get out 1 in
      for i = 0 to 20 do
        let t = float_of_int i /. 20.0 in
        let u = t *. (1.0 -. t) in
        let hoisted = (bulge_c *. u) +. (fres_c *. sqrt u) in
        let pointwise =
          Fresnel.required_clearance_m ~d1_km:(t *. d_km) ~d2_km:((1.0 -. t) *. d_km) ()
        in
        check_float (1e-9 *. (1.0 +. pointwise))
          (Printf.sprintf "D=%.0f t=%.2f" d_km t)
          pointwise hoisted
      done)
    [ 1.0; 30.0; 100.0 ]

(* ---------- Line of sight ---------- *)

let flat_dem = Cisp_terrain.Dem.create ~seed:1 Cisp_terrain.Dem.Flat
let flat_cache = Cisp_terrain.Dem_cache.create flat_dem

(* An antenna [h] m above the DEM's ground at ([lat], [lon]). *)
let endpoint dem lat lon h =
  let position = Cisp_geo.Coord.make ~lat ~lon in
  { Los.position; ground_m = Cisp_terrain.Dem.elevation_m dem position; antenna_m = h }

let ep lat lon h = endpoint flat_dem lat lon h
let feasible ?params ?(cache = flat_cache) a b = Los.feasible_cached ?params ~cache a b

let test_los_clear_short_hop () =
  (* 30 km hop with 100 m towers over flat terrain: bulge ~13.8m +
     fresnel ~14.3m << 100m - clutter(~30m).  Control: 40 m towers
     fall short of that clearance. *)
  let a h = ep 40.0 (-100.0) h and b h = ep 40.0 (-99.65) h in
  Alcotest.(check bool) "100 m towers clear" true (feasible (a 100.0) (b 100.0));
  Alcotest.(check bool) "40 m towers blocked" false (feasible (a 40.0) (b 40.0))

let test_los_blocked_long_low () =
  (* 100 km hop with 40 m towers: midpoint bulge alone is ~154 m.
     Control: 300 m towers clear it, so the hop is in range and
     blocked by its height. *)
  let a h = ep 40.0 (-100.0) h and b h = ep 40.0 (-98.83) h in
  Alcotest.(check bool) "40 m towers blocked" false (feasible (a 40.0) (b 40.0));
  Alcotest.(check bool) "300 m towers clear" true (feasible (a 300.0) (b 300.0))

let test_los_out_of_range () =
  (* ~170 km apart.  The range check comes before any terrain sample;
     control: a 200 km range walks the profile. *)
  let a = ep 40.0 (-100.0) 300.0 and b = ep 40.0 (-98.0) 300.0 in
  let cache = Cisp_terrain.Dem_cache.create flat_dem in
  Alcotest.(check bool) "beyond 100 km" false (feasible ~cache a b);
  Alcotest.(check (pair int int)) "rejected unsampled" (0, 0)
    (Cisp_terrain.Dem_cache.stats cache);
  ignore (feasible ~params:{ Los.default_params with max_range_km = 200.0 } ~cache a b);
  Alcotest.(check bool) "a 200 km range samples terrain" true
    (snd (Cisp_terrain.Dem_cache.stats cache) > 0)

let test_los_min_range () =
  (* ~85 m apart.  Control: a 50 m minimum range admits the hop. *)
  let a = ep 40.0 (-100.0) 100.0 and b = ep 40.0 (-100.001) 100.0 in
  Alcotest.(check bool) "below 1 km" false (feasible a b);
  Alcotest.(check bool) "a 50 m minimum admits it" true
    (feasible ~params:{ Los.default_params with min_range_km = 0.05 } a b)

let test_los_taller_towers_help () =
  (* Find a marginal distance where 60 m fails but 180 m clears. *)
  let a h = ep 40.0 (-100.0) h and b h = ep 40.0 (-99.2) h in
  let short = Los.feasible_cached ~cache:flat_cache (a 60.0) (b 60.0) in
  let tall = Los.feasible_cached ~cache:flat_cache (a 180.0) (b 180.0) in
  Alcotest.(check bool) "tall clears" true tall;
  Alcotest.(check bool) "short blocked" false short

let test_los_mountain_blocks () =
  (* Custom single peak between the endpoints.  Raising both antennas
     by 100 m raises the ray by 100 m everywhere, so a hop still
     blocked then has a deficit above 100 m.  Control: the same
     towers clear [Dem.Flat]. *)
  let peak =
    {
      Cisp_terrain.Dem.center = Cisp_geo.Coord.make ~lat:40.0 ~lon:(-99.5);
      axis_bearing_deg = 0.0;
      half_length_km = 40.0;
      half_width_km = 40.0;
      peak_m = 2500.0;
    }
  in
  let hop dem h =
    feasible
      ~cache:(Cisp_terrain.Dem_cache.create dem)
      (endpoint dem 40.0 (-100.0) h) (endpoint dem 40.0 (-99.0) h)
  in
  let mountain = Cisp_terrain.Dem.create ~seed:2 (Cisp_terrain.Dem.Custom [ peak ]) in
  let flat = Cisp_terrain.Dem.create ~seed:2 Cisp_terrain.Dem.Flat in
  Alcotest.(check bool) "150 m towers blocked" false (hop mountain 150.0);
  Alcotest.(check bool) "250 m towers still blocked" false (hop mountain 250.0);
  Alcotest.(check bool) "250 m towers clear flat terrain" true (hop flat 250.0)

let test_cached_check_allocation_per_evaluation () =
  (* Runtime cross-check of the static [@cisp.zero_alloc] contracts
     (L10): the cached profile walk and the bulk sampler allocate
     nothing of their own, so a warm batch of cached feasibility checks
     allocates exactly what its DEM evaluations allocate.  On
     [Dem.Flat] every evaluation allocates the same amount, measured
     here from one single-sample [surface_samples] call.  Native-only
     — bytecode boxes floats the native compiler keeps in registers,
     so the contract is a native-code property. *)
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> Alcotest.skip ()
  | Sys.Native ->
    (* Sentinel for cross-module inlining: dune's dev profile compiles
       with -opaque, which disables all cmx-based inlining — every
       cross-module float call then boxes its result and the contract
       cannot hold.  [Geodesy.distance_km] is [@inline] and
       allocation-free when inlining works, so any allocation here
       means this is a build the contract is not promised for.  CI
       runs this case from a release-profile build. *)
    let ca = Cisp_geo.Coord.make ~lat:40.0 ~lon:(-100.0) in
    let cb = Cisp_geo.Coord.make ~lat:41.0 ~lon:(-99.0) in
    let sink = Float.Array.create 1 in
    Float.Array.set sink 0 (Cisp_geo.Geodesy.distance_km ca cb);
    let s0 = Gc.allocated_bytes () in
    let s1 = Gc.allocated_bytes () in
    let b = Gc.allocated_bytes () in
    for _ = 1 to 8 do
      Float.Array.set sink 0 (Float.Array.get sink 0 +. Cisp_geo.Geodesy.distance_km ca cb)
    done;
    let inline_alloc = Gc.allocated_bytes () -. b -. (s1 -. s0) in
    if inline_alloc > 0.0 then Alcotest.skip ();
    let module Dem_cache = Cisp_terrain.Dem_cache in
    let dem = Cisp_terrain.Dem.create Cisp_terrain.Dem.Flat in
    let cache = Dem_cache.create dem in
    let rng = Cisp_util.Rng.create 43 in
    let pairs =
      Array.init 24 (fun _ ->
          let lat = Cisp_util.Rng.uniform rng 34.0 42.0 in
          let lon = Cisp_util.Rng.uniform rng (-104.0) (-90.0) in
          let a = endpoint dem lat lon 60.0 in
          let b =
            endpoint dem
              (lat +. Cisp_util.Rng.uniform rng (-0.3) 0.3)
              (lon +. Cisp_util.Rng.uniform rng (-0.3) 0.3)
              60.0
          in
          (a, b))
    in
    let clear = ref 0 in
    let run_batch () =
      for i = 0 to Array.length pairs - 1 do
        let a, b = pairs.(i) in
        if Los.feasible_cached ~cache a b then incr clear
      done
    in
    (* Warm: grows the Los scratch buffers to this batch's maximum
       sample count. *)
    run_batch ();
    (* [Gc.allocated_bytes] itself allocates (it returns a boxed
       float); measure that self-overhead with an empty section and
       subtract it from each measured section. *)
    let o0 = Gc.allocated_bytes () in
    let o1 = Gc.allocated_bytes () in
    let overhead = o1 -. o0 in
    let lats = Float.Array.make 1 38.0 and lons = Float.Array.make 1 (-97.0) in
    let out = Float.Array.create 1 in
    let e0 = Gc.allocated_bytes () in
    Dem_cache.surface_samples cache ~lats ~lons ~out ~lo:0 ~hi:0;
    let e1 = Gc.allocated_bytes () in
    let per_evaluation = e1 -. e0 -. overhead in
    let _, evals0 = Dem_cache.stats cache in
    let b0 = Gc.allocated_bytes () in
    run_batch ();
    let b1 = Gc.allocated_bytes () in
    let _, evals1 = Dem_cache.stats cache in
    let evaluations = evals1 - evals0 in
    Alcotest.(check bool) "the batch samples terrain" true (evaluations > 0);
    Alcotest.(check (float 0.0)) "batch allocates evaluations x one evaluation"
      (float_of_int evaluations *. per_evaluation)
      (b1 -. b0 -. overhead)

let test_blocked_midpoint_samples_once () =
  (* A path whose midpoint is obstructed must be rejected after a
     single terrain sample (regression: the blocked branch used to
     evaluate the midpoint margin twice).  Raising both antennas by
     1,000 m leaves it blocked, so the deficit is the wall's; control:
     those towers clear [Dem.Flat]. *)
  let wall =
    {
      Cisp_terrain.Dem.center = Cisp_geo.Coord.make ~lat:40.0 ~lon:(-99.5);
      axis_bearing_deg = 0.0;
      half_length_km = 20.0;
      half_width_km = 20.0;
      peak_m = 10_000.0;
    }
  in
  let hop region h =
    let cache = Cisp_terrain.Dem_cache.create (Cisp_terrain.Dem.create ~seed:3 region) in
    let at lon =
      { Los.position = Cisp_geo.Coord.make ~lat:40.0 ~lon; ground_m = 0.0; antenna_m = h }
    in
    let clear = feasible ~cache (at (-100.0)) (at (-99.0)) in
    (clear, Cisp_terrain.Dem_cache.stats cache)
  in
  let walled = Cisp_terrain.Dem.Custom [ wall ] in
  Alcotest.(check (pair bool (pair int int))) "blocked after one terrain sample"
    (false, (0, 1)) (hop walled 100.0);
  Alcotest.(check (pair bool (pair int int))) "1,100 m towers: still one blocked sample"
    (false, (0, 1)) (hop walled 1100.0);
  Alcotest.(check bool) "1,100 m towers clear flat terrain" true
    (fst (hop Cisp_terrain.Dem.Flat 1100.0))

(* ---------- Attenuation (ITU-R P.838) ---------- *)

let test_p838_coefficients_11ghz () =
  (* gamma = k R^alpha: k is gamma at 1 mm/h, alpha its log-slope. *)
  let gamma r =
    Attenuation.specific_attenuation_db_per_km ~f_ghz:11.0 Attenuation.Horizontal ~rain_mm_h:r
  in
  let k = gamma 1.0 and alpha = log10 (gamma 10.0 /. gamma 1.0) in
  (* Published P.838-3 values at 11 GHz H-pol: k~0.0177, alpha~1.21. *)
  check_float 0.004 "k" 0.0177 k;
  check_float 0.05 "alpha" 1.21 alpha

let test_p838_interpolation_continuity () =
  let g f = Attenuation.specific_attenuation_db_per_km ~f_ghz:f Attenuation.Horizontal ~rain_mm_h:30.0 in
  (* Continuity across an anchor frequency. *)
  check_float 0.05 "continuous at 10GHz" (g 9.999) (g 10.001)

let test_attenuation_monotone_in_rain () =
  let a r = Attenuation.path_attenuation_db ~f_ghz:11.0 Attenuation.Horizontal ~rain_mm_h:r ~d_km:50.0 in
  Alcotest.(check bool) "monotone" true (a 5.0 < a 20.0 && a 20.0 < a 80.0);
  check_float 1e-9 "zero rain" 0.0 (a 0.0)

let test_effective_path_shorter () =
  let d_eff = Attenuation.effective_path_km ~d_km:100.0 ~rain_mm_h:50.0 in
  Alcotest.(check bool) "shorter than physical" true (d_eff < 100.0 && d_eff > 0.0)

(* ---------- Link budget ---------- *)

let test_fspl_known () =
  (* FSPL at 11 GHz, 50 km: 92.45 + 20log10(11) + 20log10(50) ~ 147.3 dB *)
  check_float 0.1 "fspl" 147.27 (Link_budget.fspl_db ~f_ghz:11.0 ~d_km:50.0)

let test_fade_margin_decreasing () =
  let m d = Link_budget.fade_margin_db ~f_ghz:11.0 ~d_km:d in
  Alcotest.(check bool) "decreasing" true (m 20.0 > m 50.0 && m 50.0 > m 100.0)

(* ---------- Capacity ---------- *)

let test_qam_bits () =
  Alcotest.(check int) "256qam" 8 (Capacity.qam_bits_per_symbol 256);
  Alcotest.(check int) "4qam" 2 (Capacity.qam_bits_per_symbol 4);
  Alcotest.check_raises "non power of two"
    (Invalid_argument "qam_bits_per_symbol: not a power of two") (fun () ->
      ignore (Capacity.qam_bits_per_symbol 12))

let test_qam_rate_about_1gbps () =
  (* 56 MHz channel, 256-QAM, 0.9 coding, 2 channels ~ 0.8 Gbps:
     the paper's "about 1 Gbps" with wide channels and multiplexing. *)
  let r = Capacity.qam_gbps ~bandwidth_mhz:56.0 ~qam:256 ~coding_rate:0.9 ~channels:2 in
  Alcotest.(check bool) "order of 1 Gbps" true (r > 0.5 && r < 2.0)

let test_series_for_gbps () =
  Alcotest.(check int) "0.5 -> 1" 1 (Capacity.series_for_gbps 0.5);
  Alcotest.(check int) "1.0 -> 1" 1 (Capacity.series_for_gbps 1.0);
  Alcotest.(check int) "1.1 -> 2" 2 (Capacity.series_for_gbps 1.1);
  Alcotest.(check int) "4.0 -> 2" 2 (Capacity.series_for_gbps 4.0);
  Alcotest.(check int) "4.1 -> 3" 3 (Capacity.series_for_gbps 4.1);
  Alcotest.(check int) "9 -> 3" 3 (Capacity.series_for_gbps 9.0);
  Alcotest.(check int) "zero" 0 (Capacity.series_for_gbps 0.0)

let prop_series_capacity_sufficient =
  QCheck.Test.make ~name:"k series provide the demanded bandwidth" ~count:300
    QCheck.(float_range 0.01 100.0)
    (fun gbps ->
      let k = Capacity.series_for_gbps gbps in
      Capacity.gbps_of_series k >= gbps -. 1e-9
      && (k = 1 || Capacity.gbps_of_series (k - 1) < gbps))

let test_shannon_sanity () =
  let r = Capacity.shannon_gbps ~bandwidth_mhz:56.0 ~snr_db:30.0 in
  Alcotest.(check bool) "plausible bound" true (r > 0.4 && r < 1.0)

let suites =
  [
    ( "rf.fresnel",
      [
        Alcotest.test_case "paper midpoint fresnel" `Quick test_fresnel_midpoint_matches_paper;
        Alcotest.test_case "paper midpoint bulge" `Quick test_bulge_midpoint_matches_paper;
        Alcotest.test_case "100km bulge" `Quick test_bulge_100km_value;
        Alcotest.test_case "symmetry and endpoints" `Quick test_fresnel_symmetric_and_zero_at_ends;
        Alcotest.test_case "clearance monotone" `Quick test_clearance_monotone_in_distance;
        Alcotest.test_case "pair coeffs match clearance" `Quick test_pair_coeffs_match_clearance;
      ] );
    ( "rf.los",
      [
        Alcotest.test_case "clear short hop" `Quick test_los_clear_short_hop;
        Alcotest.test_case "blocked long low" `Quick test_los_blocked_long_low;
        Alcotest.test_case "out of range" `Quick test_los_out_of_range;
        Alcotest.test_case "min range" `Quick test_los_min_range;
        Alcotest.test_case "taller towers help" `Quick test_los_taller_towers_help;
        Alcotest.test_case "mountain blocks" `Quick test_los_mountain_blocks;
        Alcotest.test_case "cached check allocates per evaluation" `Quick
          test_cached_check_allocation_per_evaluation;
        Alcotest.test_case "blocked midpoint samples once" `Quick test_blocked_midpoint_samples_once;
      ] );
    ( "rf.attenuation",
      [
        Alcotest.test_case "p838 coefficients 11GHz" `Quick test_p838_coefficients_11ghz;
        Alcotest.test_case "interpolation continuity" `Quick test_p838_interpolation_continuity;
        Alcotest.test_case "monotone in rain" `Quick test_attenuation_monotone_in_rain;
        Alcotest.test_case "effective path" `Quick test_effective_path_shorter;
      ] );
    ( "rf.link_budget",
      [
        Alcotest.test_case "fspl" `Quick test_fspl_known;
        Alcotest.test_case "fade margin decreasing" `Quick test_fade_margin_decreasing;
      ] );
    ( "rf.capacity",
      [
        Alcotest.test_case "qam bits" `Quick test_qam_bits;
        Alcotest.test_case "1 gbps per hop" `Quick test_qam_rate_about_1gbps;
        Alcotest.test_case "series for gbps" `Quick test_series_for_gbps;
        Alcotest.test_case "shannon sanity" `Quick test_shannon_sanity;
        QCheck_alcotest.to_alcotest prop_series_capacity_sufficient;
      ] );
  ]

(* ---------- Medium (paper section 3.4) ---------- *)

let test_media_envelopes () =
  Alcotest.(check bool) "mw longest range" true
    (Medium.microwave.Medium.max_range_km > Medium.millimeter_wave.Medium.max_range_km);
  Alcotest.(check bool) "mmw outranges fso" true
    (Medium.millimeter_wave.Medium.max_range_km > Medium.free_space_optics.Medium.max_range_km);
  Alcotest.(check bool) "bandwidth inverts range" true
    (Medium.free_space_optics.Medium.hop_gbps > Medium.millimeter_wave.Medium.hop_gbps
    && Medium.millimeter_wave.Medium.hop_gbps > Medium.microwave.Medium.hop_gbps)

let test_media_crossover () =
  (* The section-4 observation: at low bandwidth long-range MW wins;
     at very high bandwidth on the same link, denser high-rate chains
     take over. *)
  let tower_usd = 100_000.0 in
  let low = Medium.cheapest_for ~link_km:500.0 ~target_gbps:1.0 ~tower_usd in
  Alcotest.(check bool) "mw wins at 1 Gbps" true
    (low.Medium.medium.Medium.technology = Medium.Microwave);
  let high = Medium.cheapest_for ~link_km:500.0 ~target_gbps:400.0 ~tower_usd in
  Alcotest.(check bool) "a denser technology wins at 400 Gbps" true
    (high.Medium.medium.Medium.technology <> Medium.Microwave);
  (* Sanity of the chain arithmetic. *)
  let c = Medium.chain_for Medium.microwave ~link_km:250.0 ~target_gbps:5.0 ~tower_usd in
  Alcotest.(check int) "k = ceil sqrt 5" 3 c.Medium.chains;
  Alcotest.(check int) "hops at max range" 3 c.Medium.hops

let media_suite =
  ( "rf.medium",
    [
      Alcotest.test_case "envelopes" `Quick test_media_envelopes;
      Alcotest.test_case "bandwidth crossover" `Quick test_media_crossover;
    ] )

let suites = suites @ [ media_suite ]
