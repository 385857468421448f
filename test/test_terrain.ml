open Cisp_terrain

let coord = Cisp_geo.Coord.make
let check_float eps = Alcotest.(check (float eps))

(* ---------- Noise ---------- *)

let test_noise_deterministic () =
  let a = Noise.value ~seed:1 3.7 (-2.2) in
  let b = Noise.value ~seed:1 3.7 (-2.2) in
  check_float 0.0 "same inputs same output" a b

let test_noise_seed_sensitivity () =
  let a = Noise.value ~seed:1 3.7 2.2 in
  let b = Noise.value ~seed:2 3.7 2.2 in
  Alcotest.(check bool) "different seeds differ" true (a <> b)

let test_noise_range () =
  let rng = Cisp_util.Rng.create 5 in
  for _ = 1 to 2000 do
    let x = Cisp_util.Rng.uniform rng (-50.0) 50.0 in
    let y = Cisp_util.Rng.uniform rng (-50.0) 50.0 in
    let v = Noise.value ~seed:3 x y in
    Alcotest.(check bool) "in [-1,1]" true (v >= -1.0 && v <= 1.0);
    let f = Noise.fbm ~seed:3 ~octaves:5 ~lacunarity:2.0 ~gain:0.5 x y in
    Alcotest.(check bool) "fbm bounded" true (f >= -1.2 && f <= 1.2);
    let r = Noise.ridged ~seed:3 ~octaves:4 x y in
    Alcotest.(check bool) "ridged in [0,1]" true (r >= 0.0 && r <= 1.0)
  done

let test_noise_continuity () =
  (* Small input change -> small output change. *)
  let a = Noise.value ~seed:7 10.0 10.0 in
  let b = Noise.value ~seed:7 10.0001 10.0 in
  Alcotest.(check bool) "continuous" true (Float.abs (a -. b) < 0.01)

let test_fbm_matches_value_spec () =
  (* [Noise.fbm] hand-inlines the lattice hash and bilinear blend for
     speed; [Noise.value] remains the single-octave specification.
     The two must agree bit-for-bit. *)
  let spec ~seed ~octaves ~lacunarity ~gain x y =
    let rec loop i freq amp sum norm =
      if i >= octaves then sum /. norm
      else begin
        let v = Noise.value ~seed:(seed + i) (x *. freq) (y *. freq) in
        loop (i + 1) (freq *. lacunarity) (amp *. gain) (sum +. (amp *. v)) (norm +. amp)
      end
    in
    loop 0 1.0 1.0 0.0 0.0
  in
  let rng = Cisp_util.Rng.create 21 in
  for _ = 1 to 500 do
    let x = Cisp_util.Rng.uniform rng (-400.0) 400.0 in
    let y = Cisp_util.Rng.uniform rng (-200.0) 200.0 in
    let octaves = 1 + Cisp_util.Rng.int rng 6 in
    let fast = Noise.fbm ~seed:9 ~octaves ~lacunarity:2.1 ~gain:0.5 x y in
    let slow = spec ~seed:9 ~octaves ~lacunarity:2.1 ~gain:0.5 x y in
    Alcotest.(check int64)
      (Printf.sprintf "fbm(%g, %g) octaves=%d" x y octaves)
      (Int64.bits_of_float slow) (Int64.bits_of_float fast)
  done

(* ---------- Dem ---------- *)

let us = Dem.create Dem.Us_continental

let test_dem_deterministic () =
  let p = coord ~lat:39.0 ~lon:(-98.0) in
  let dem2 = Dem.create Dem.Us_continental in
  check_float 0.0 "same seed same elevation" (Dem.elevation_m us p) (Dem.elevation_m dem2 p)

let test_dem_nonnegative () =
  let rng = Cisp_util.Rng.create 6 in
  for _ = 1 to 500 do
    let p =
      coord
        ~lat:(Cisp_util.Rng.uniform rng 25.0 49.0)
        ~lon:(Cisp_util.Rng.uniform rng (-124.0) (-67.0))
    in
    Alcotest.(check bool) "elevation >= 0" true (Dem.elevation_m us p >= 0.0);
    Alcotest.(check bool) "clutter >= 0" true (Dem.clutter_m us p >= 0.0);
    Alcotest.(check bool) "surface >= elevation" true
      (Dem.surface_m us p >= Dem.elevation_m us p)
  done

let test_dem_mountains_higher_than_plains () =
  let rockies = coord ~lat:39.5 ~lon:(-106.5) in
  let kansas = coord ~lat:38.5 ~lon:(-98.0) in
  let e_r = Dem.elevation_m us rockies and e_k = Dem.elevation_m us kansas in
  Alcotest.(check bool)
    (Printf.sprintf "rockies (%.0f) > kansas (%.0f)" e_r e_k)
    true (e_r > e_k +. 500.0)

let test_dem_west_ramp () =
  let denver = coord ~lat:39.74 ~lon:(-104.98) in
  let stlouis = coord ~lat:38.63 ~lon:(-90.20) in
  Alcotest.(check bool) "denver above st louis" true
    (Dem.elevation_m us denver > Dem.elevation_m us stlouis +. 400.0)

let test_dem_ruggedness () =
  let rockies = coord ~lat:39.5 ~lon:(-106.5) in
  let kansas = coord ~lat:38.5 ~lon:(-98.0) in
  Alcotest.(check bool) "rockies more rugged" true
    (Dem.ruggedness us rockies > 3.0 *. Dem.ruggedness us kansas)

let test_dem_flat_region () =
  let flat = Dem.create ~seed:9 Dem.Flat in
  let rng = Cisp_util.Rng.create 10 in
  for _ = 1 to 200 do
    let p =
      coord
        ~lat:(Cisp_util.Rng.uniform rng 30.0 45.0)
        ~lon:(Cisp_util.Rng.uniform rng (-110.0) (-80.0))
    in
    let e = Dem.elevation_m flat p in
    Alcotest.(check bool) "flat stays low" true (e >= 0.0 && e < 300.0)
  done

(* ---------- Dem_cache ---------- *)

let test_cache_consistency () =
  let cache = Dem_cache.create us in
  let p = coord ~lat:40.0 ~lon:(-95.0) in
  let v1 = Dem_cache.surface_m cache p in
  let v2 = Dem_cache.surface_m cache p in
  check_float 0.0 "stable across queries" v1 v2;
  Alcotest.(check (pair int int)) "two evaluations, no hits" (0, 2) (Dem_cache.stats cache)

let test_cache_accuracy () =
  (* Cached value equals the DEM within the quantization cell's relief. *)
  let cache = Dem_cache.create us in
  let rng = Cisp_util.Rng.create 11 in
  for _ = 1 to 200 do
    let p =
      coord
        ~lat:(Cisp_util.Rng.uniform rng 30.0 45.0)
        ~lon:(Cisp_util.Rng.uniform rng (-110.0) (-80.0))
    in
    let cached = Dem_cache.surface_m cache p in
    let exact = Dem.surface_m us p in
    Alcotest.(check bool) "within 60m" true (Float.abs (cached -. exact) < 60.0)
  done

let test_cache_ground_vs_surface () =
  let cache = Dem_cache.create us in
  let p = coord ~lat:41.0 ~lon:(-93.0) in
  Alcotest.(check bool) "surface >= ground" true
    (Dem_cache.surface_m cache p >= Dem_cache.elevation_m cache p)

let random_point rng =
  coord
    ~lat:(Cisp_util.Rng.uniform rng 30.0 45.0)
    ~lon:(Cisp_util.Rng.uniform rng (-110.0) (-80.0))

let test_cache_hit_miss_counters () =
  (* Nothing is memoized: [stats] reports no hits and counts every
     query as one evaluation, repeated cells included. *)
  let cache = Dem_cache.create us in
  let pts = List.init 50 (fun i -> coord ~lat:(32.0 +. (0.1 *. float_of_int i)) ~lon:(-101.3)) in
  List.iter (fun p -> ignore (Dem_cache.surface_m cache p)) pts;
  Alcotest.(check (pair int int)) "first pass" (0, 50) (Dem_cache.stats cache);
  List.iter (fun p -> ignore (Dem_cache.surface_m cache p)) pts;
  Alcotest.(check (pair int int)) "second pass" (0, 100) (Dem_cache.stats cache);
  ignore (Dem_cache.surface_m cache (coord ~lat:32.0001 ~lon:(-101.3001)));
  Alcotest.(check (pair int int)) "same cell, different point" (0, 101) (Dem_cache.stats cache)

let test_cache_cell_center_purity () =
  (* Every value the cache returns is the DEM evaluated at the cell's
     own center ([snap]), never at the query point that happened to
     touch the cell first. *)
  let cache = Dem_cache.create us in
  let rng = Cisp_util.Rng.create 32 in
  for _ = 1 to 200 do
    let p = random_point rng in
    let c = Dem_cache.snap p in
    Alcotest.(check int64) "surface = surface at cell center"
      (Int64.bits_of_float (Dem.surface_m us c))
      (Int64.bits_of_float (Dem_cache.surface_m cache p));
    Alcotest.(check int64) "ground = elevation at cell center"
      (Int64.bits_of_float (Dem.elevation_m us c))
      (Int64.bits_of_float (Dem_cache.elevation_m cache p))
  done

let heights_bits = Array.map Int64.bits_of_float

let test_cache_bulk_matches_scalar () =
  (* [surface_samples], the LOS walk's bulk entry, writes exactly what
     [surface_m_ll] returns at each position, bit for bit, touches only
     the requested index range and counts one evaluation per sample. *)
  let rng = Cisp_util.Rng.create 41 in
  let n = 64 in
  let lats = Float.Array.init n (fun _ -> Cisp_util.Rng.uniform rng 30.0 45.0) in
  let lons = Float.Array.init n (fun _ -> Cisp_util.Rng.uniform rng (-110.0) (-80.0)) in
  let cache = Dem_cache.create us in
  let out = Float.Array.make n nan in
  let lo = 3 and hi = n - 5 in
  Dem_cache.surface_samples cache ~lats ~lons ~out ~lo ~hi;
  Alcotest.(check (pair int int)) "one evaluation per sample" (0, hi - lo + 1)
    (Dem_cache.stats cache);
  for i = 0 to n - 1 do
    let bulk = Float.Array.get out i in
    if i < lo || i > hi then
      Alcotest.(check bool) "outside the range untouched" true (Float.is_nan bulk)
    else
      Alcotest.(check int64) "bulk = scalar"
        (Int64.bits_of_float
           (Dem_cache.surface_m_ll cache ~lat:(Float.Array.get lats i)
              ~lon:(Float.Array.get lons i)))
        (Int64.bits_of_float bulk)
  done

let test_cache_order_independence () =
  (* Each height is a pure function of its cell: query order must not
     change what any query returns. *)
  let rng = Cisp_util.Rng.create 33 in
  let pts = Array.init 300 (fun _ -> random_point rng) in
  let n = Array.length pts in
  let cache = Dem_cache.create us in
  let forward = Array.map (Dem_cache.surface_m cache) pts in
  let reverse = Array.make n nan in
  for i = n - 1 downto 0 do
    reverse.(i) <- Dem_cache.surface_m cache pts.(i)
  done;
  Alcotest.(check (array int64)) "forward and reverse queries agree bitwise"
    (heights_bits forward) (heights_bits reverse)

let test_cache_width_invariance () =
  (* A parallel sweep returns bit-identical heights, position by
     position, at any domain count.  Slight overlap between indices
     makes domains query common cells concurrently. *)
  let n = 2000 in
  let sweep jobs =
    Cisp_util.Pool.with_default_jobs jobs (fun () ->
        let cache = Dem_cache.create us in
        let surface = Array.make n nan and ground = Array.make n nan in
        Cisp_util.Pool.parallel_for ~n (fun i ->
            let f = float_of_int (i mod 1900) /. 1900.0 in
            let lat = 30.0 +. (15.0 *. f) in
            let lon = -110.0 +. (30.0 *. Float.rem (f *. 37.0) 1.0) in
            surface.(i) <- Dem_cache.surface_m_ll cache ~lat ~lon;
            ground.(i) <- Dem_cache.elevation_m_ll cache ~lat ~lon);
        (heights_bits surface, heights_bits ground))
  in
  let s1, g1 = sweep 1 in
  List.iter
    (fun jobs ->
      let sw, gw = sweep jobs in
      Alcotest.(check (array int64))
        (Printf.sprintf "surface heights identical, jobs=1 vs %d" jobs)
        s1 sw;
      Alcotest.(check (array int64))
        (Printf.sprintf "ground heights identical, jobs=1 vs %d" jobs)
        g1 gw)
    [ 2; 8 ]

let test_cache_telemetry_stress () =
  (* 8 domains query the DEM view while hammering telemetry: counter
     totals stay exact, the evaluation counter counts every query, and
     every height matches a sequential sweep bit for bit. *)
  let n = 4096 in
  let sweep jobs =
    Cisp_util.Telemetry.reset ();
    Cisp_util.Telemetry.enable_metrics ();
    Fun.protect ~finally:Cisp_util.Telemetry.reset (fun () ->
        Cisp_util.Pool.with_default_jobs jobs (fun () ->
            let cache = Dem_cache.create us in
            let heights = Array.make n nan in
            Cisp_util.Pool.parallel_for ~n (fun i ->
                let f = float_of_int (i mod 997) /. 997.0 in
                let lat = 30.0 +. (15.0 *. f) in
                let lon = -110.0 +. (30.0 *. Float.rem (f *. 37.0) 1.0) in
                heights.(i) <- Dem_cache.surface_m_ll cache ~lat ~lon;
                Cisp_util.Telemetry.incr "stress.queries";
                Cisp_util.Telemetry.observe "stress.lat_deg" lat);
            ( snd (Dem_cache.stats cache),
              Cisp_util.Telemetry.counter "stress.queries",
              Array.length (Cisp_util.Telemetry.samples "stress.lat_deg"),
              heights_bits heights )))
  in
  let q1, c1, s1, h1 = sweep 1 in
  let q8, c8, s8, h8 = sweep 8 in
  Alcotest.(check int) "evaluations exact at jobs=1" n q1;
  Alcotest.(check int) "evaluations exact at jobs=8" n q8;
  Alcotest.(check int) "counter exact at jobs=1" n c1;
  Alcotest.(check int) "counter exact at jobs=8" n c8;
  Alcotest.(check int) "every observation lands at jobs=1" n s1;
  Alcotest.(check int) "every observation lands at jobs=8" n s8;
  Alcotest.(check (array int64)) "heights bit-identical to sequential" h1 h8

let suites =
  [
    ( "terrain.noise",
      [
        Alcotest.test_case "deterministic" `Quick test_noise_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_noise_seed_sensitivity;
        Alcotest.test_case "range" `Quick test_noise_range;
        Alcotest.test_case "continuity" `Quick test_noise_continuity;
        Alcotest.test_case "fbm matches value spec" `Quick test_fbm_matches_value_spec;
      ] );
    ( "terrain.dem",
      [
        Alcotest.test_case "deterministic" `Quick test_dem_deterministic;
        Alcotest.test_case "nonnegative" `Quick test_dem_nonnegative;
        Alcotest.test_case "mountains higher" `Quick test_dem_mountains_higher_than_plains;
        Alcotest.test_case "west ramp" `Quick test_dem_west_ramp;
        Alcotest.test_case "ruggedness" `Quick test_dem_ruggedness;
        Alcotest.test_case "flat region" `Quick test_dem_flat_region;
      ] );
    ( "terrain.cache",
      [
        Alcotest.test_case "consistency" `Quick test_cache_consistency;
        Alcotest.test_case "accuracy" `Quick test_cache_accuracy;
        Alcotest.test_case "ground vs surface" `Quick test_cache_ground_vs_surface;
        Alcotest.test_case "hit/miss counters" `Quick test_cache_hit_miss_counters;
        Alcotest.test_case "cell-center purity" `Quick test_cache_cell_center_purity;
        Alcotest.test_case "order independence" `Quick test_cache_order_independence;
        Alcotest.test_case "bulk matches scalar" `Quick test_cache_bulk_matches_scalar;
        Alcotest.test_case "width invariance" `Slow test_cache_width_invariance;
        Alcotest.test_case "telemetry stress at jobs 8" `Slow
          test_cache_telemetry_stress;
      ] );
  ]
