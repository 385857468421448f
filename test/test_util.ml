open Cisp_util

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
  done

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 6 in
  let xs = Array.init 50_000 (fun _ -> Rng.gaussian rng) in
  check_float_eps 0.05 "mean ~ 0" 0.0 (Stats.mean xs);
  check_float_eps 0.05 "stddev ~ 1" 1.0 (Stats.stddev xs)

let test_rng_exponential_mean () =
  let rng = Rng.create 7 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential rng 4.0) in
  check_float_eps 0.01 "mean ~ 1/rate" 0.25 (Stats.mean xs)

let test_rng_poisson_mean () =
  let rng = Rng.create 8 in
  let xs = Array.init 20_000 (fun _ -> float_of_int (Rng.poisson rng 3.5)) in
  check_float_eps 0.1 "mean ~ lambda" 3.5 (Stats.mean xs);
  (* large-mean branch *)
  let ys = Array.init 20_000 (fun _ -> float_of_int (Rng.poisson rng 80.0)) in
  check_float_eps 1.0 "large mean" 80.0 (Stats.mean ys)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 10 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Rng.sample rng arr 10 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let l = Array.to_list s in
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare l))

(* ---------- Stats ---------- *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "empty" 0.0 (Stats.mean [||])

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p50" 3.0 (Stats.percentile xs 50.0);
  check_float "p100" 5.0 (Stats.percentile xs 100.0);
  check_float "p25" 2.0 (Stats.percentile xs 25.0);
  (* unsorted input *)
  check_float "unsorted" 3.0 (Stats.median [| 5.0; 1.0; 3.0; 2.0; 4.0 |])

let test_stats_variance () =
  (* population variance of [1;3;5]: ((-2)^2 + 0 + 2^2)/3 = 8/3 *)
  check_float "variance" (8.0 /. 3.0) (Stats.variance [| 1.0; 3.0; 5.0 |]);
  check_float "stddev" (sqrt (8.0 /. 3.0)) (Stats.stddev [| 1.0; 3.0; 5.0 |])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi;
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.min_max: empty")
    (fun () -> ignore (Stats.min_max [||]))

let test_stats_cdf () =
  let c = Stats.cdf [| 2.0; 1.0 |] in
  Alcotest.(check int) "points" 2 (Array.length c);
  check_float "first value" 1.0 (fst c.(0));
  check_float "first frac" 0.5 (snd c.(0));
  check_float "last frac" 1.0 (snd c.(1))

let test_stats_summary () =
  let s = Stats.summarize (Array.init 101 (fun i -> float_of_int i)) in
  Alcotest.(check int) "n" 101 s.n;
  check_float "p50" 50.0 s.p50;
  check_float "p99" 99.0 s.p99;
  check_float "max" 100.0 s.max;
  let empty = Stats.summarize [||] in
  Alcotest.(check int) "empty n" 0 empty.n

(* ---------- Units ---------- *)

let test_units () =
  check_float_eps 1e-6 "c" 299792.458 Units.c_vacuum_km_s;
  check_float_eps 1e-6 "fiber factor" 1.5 Units.fiber_latency_factor;
  check_float_eps 1e-9 "ms roundtrip" 123.0 (Units.km_of_ms_at_c (Units.ms_of_km_at_c 123.0));
  check_float_eps 1e-9 "1000km at c" (1000.0 /. 299792.458 *. 1000.0) (Units.ms_of_km_at_c 1000.0);
  check_float_eps 1e-9 "gbps to GB" 125.0 (Units.gb_of_gbps_over 1.0 ~seconds:1000.0);
  check_float_eps 1e-9 "deg rad roundtrip" 33.3 (Units.rad_to_deg (Units.deg_to_rad 33.3))

(* QCheck properties *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 40) (float_range (-100.) 100.)) (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_range (-1e6) 1e6))
    (fun xs ->
      let lo, hi = Stats.min_max xs in
      let m = Stats.mean xs in
      m >= lo -. 1e-6 && m <= hi +. 1e-6)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"Rng.int in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
        QCheck_alcotest.to_alcotest prop_rng_int_in_range;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "variance" `Quick test_stats_variance;
        Alcotest.test_case "min max" `Quick test_stats_min_max;
        Alcotest.test_case "cdf" `Quick test_stats_cdf;
        Alcotest.test_case "summary" `Quick test_stats_summary;
        QCheck_alcotest.to_alcotest prop_percentile_monotone;
        QCheck_alcotest.to_alcotest prop_mean_between_min_max;
      ] );
    ("util.units", [ Alcotest.test_case "constants and conversions" `Quick test_units ]);
  ]
