open Cisp_apps

let check_float eps = Alcotest.(check (float eps))

(* ---------- Web ---------- *)

let pages = Web.generate ~count:40

let test_web_corpus_shape () =
  Alcotest.(check int) "count" 40 (List.length pages);
  List.iter
    (fun p ->
      Alcotest.(check bool) "objects" true (List.length p.Web.objects >= 5);
      Alcotest.(check bool) "rtt band" true (p.Web.base_rtt_ms >= 15.0 && p.Web.base_rtt_ms <= 300.0);
      (* first object is the root HTML at level 0 *)
      Alcotest.(check int) "root level" 0 (List.hd p.Web.objects).Web.level)
    pages

let test_web_deterministic () =
  let again = Web.generate ~count:40 in
  let p1 = List.hd pages and p2 = List.hd again in
  check_float 0.0 "same rtt" p1.Web.base_rtt_ms p2.Web.base_rtt_ms;
  Alcotest.(check int) "same objects" (List.length p1.Web.objects) (List.length p2.Web.objects)

let test_web_plt_scaling_monotone () =
  List.iter
    (fun p ->
      let base = Web.plt_ms p Web.baseline in
      let fast = Web.plt_ms p Web.cisp in
      let sel = Web.plt_ms p Web.cisp_selective in
      Alcotest.(check bool) "cisp faster" true (fast < base);
      Alcotest.(check bool) "selective between" true (sel <= base +. 1e-9 && sel >= fast -. 1e-9))
    pages

let test_web_plt_sublinear_in_rtt () =
  (* Reducing RTT by 67% must reduce PLT by less than 67% (non-network
     time) — the paper's central observation. *)
  let p = List.hd pages in
  let base = Web.plt_ms p Web.baseline in
  let fast = Web.plt_ms p Web.cisp in
  Alcotest.(check bool) "reduction < RTT reduction" true ((base -. fast) /. base < 0.67)

let test_web_object_times () =
  let p = List.hd pages in
  let base = Web.object_load_times_ms p Web.baseline in
  let fast = Web.object_load_times_ms p Web.cisp in
  Alcotest.(check int) "one time per object" (List.length p.Web.objects) (List.length base);
  List.iter2
    (fun b f -> Alcotest.(check bool) "every object faster" true (f < b))
    base fast

let test_web_c2s_fraction_band () =
  let f = Web.c2s_byte_fraction pages in
  Alcotest.(check bool)
    (Printf.sprintf "c2s fraction %.3f in [0.03, 0.15]" f)
    true (f > 0.03 && f < 0.15)

(* ---------- Gaming ---------- *)

let test_gaming_speculative_wins () =
  List.iter
    (fun l ->
      let conv = Gaming.frame_time_ms Gaming.Thin_conventional ~one_way_ms:l in
      let spec = Gaming.frame_time_ms Gaming.Thin_speculative_cisp ~one_way_ms:l in
      Alcotest.(check bool) "speculative faster" true (spec < conv))
    [ 10.0; 50.0; 150.0 ]

let test_gaming_linear_in_latency () =
  let f l = Gaming.frame_time_ms Gaming.Thin_conventional ~one_way_ms:l in
  check_float 1e-9 "slope 2x one-way" 100.0 (f 100.0 -. f 50.0)

let test_gaming_coverage_zero_equals_conventional () =
  let params = { Gaming.default_params with Gaming.speculation_coverage = 0.0 } in
  check_float 1e-9 "no speculation = conventional"
    (Gaming.frame_time_ms Gaming.Thin_conventional ~one_way_ms:40.0)
    (Gaming.frame_time_ms ~params Gaming.Thin_speculative_cisp ~one_way_ms:40.0)

let test_gaming_fat_client_ratio () =
  (* Network part shrinks exactly by the cISP factor. *)
  let params = { Gaming.default_params with Gaming.server_tick_ms = 0.0; render_ms = 0.0 } in
  let conv = Gaming.frame_time_ms ~params Gaming.Fat_conventional ~one_way_ms:60.0 in
  let cisp = Gaming.frame_time_ms ~params Gaming.Fat_cisp ~one_way_ms:60.0 in
  check_float 1e-9 "3x reduction" 3.0 (conv /. cisp)

let test_gaming_session_stats () =
  let s = Gaming.simulate_session Gaming.Thin_speculative_cisp ~one_way_ms:50.0 ~inputs:5000 in
  Alcotest.(check int) "samples" 5000 s.Cisp_util.Stats.n;
  Alcotest.(check bool) "jitter ordering" true (s.Cisp_util.Stats.p99 >= s.Cisp_util.Stats.p50)

(* ---------- Econ ---------- *)

let test_econ_search_anchors () =
  (* The paper's anchors: $1.84/GB at 200 ms, $3.74/GB at 400 ms. *)
  check_float 0.05 "200ms" 1.84 (Econ.search_value_per_gb ~speedup_ms:200.0);
  check_float 0.08 "400ms" 3.74 (Econ.search_value_per_gb ~speedup_ms:400.0);
  check_float 0.05 "100ms interpolates" 0.92 (Econ.search_value_per_gb ~speedup_ms:100.0)

let test_econ_ecommerce_band () =
  let r = Econ.ecommerce_value_per_gb ~speedup_ms:200.0 in
  check_float 0.2 "low end" 3.26 r.Econ.low;
  check_float 1.2 "high end" 22.82 r.Econ.high

let test_econ_gaming () =
  check_float 0.2 "vpn pricing" 3.7 (Econ.gaming_value_per_gb ())

let test_econ_steam () =
  check_float 1.0 "steam aggregate" 27.0
    (Econ.steam_us_aggregate_gbps ~players:16_000_000 ~us_share:0.17 ~kbps_per_player:10.0)

let test_econ_summary_exceeds_cost () =
  let summary = Econ.summary ~cost_per_gb:0.81 in
  List.iter
    (fun v -> Alcotest.(check bool) (v.Econ.application ^ " exceeds $0.81") true v.Econ.exceeds_cost)
    summary;
  (* Every value by its bits: the published constants behind it are
     fixed, so the summary is too. *)
  let b = Buffer.create 256 in
  List.iter
    (fun v ->
      Printf.bprintf b "%s %Ld %Ld %b\n" v.Econ.application
        (Int64.bits_of_float v.Econ.value_per_gb.Econ.low)
        (Int64.bits_of_float v.Econ.value_per_gb.Econ.high)
        v.Econ.exceeds_cost)
    summary;
  Alcotest.(check string) "summary bits" "7408f4b13a1c2cd7af58c4d59439c55c" (Digest.to_hex (Digest.string (Buffer.contents b)))

let suites =
  [
    ( "apps.web",
      [
        Alcotest.test_case "corpus shape" `Quick test_web_corpus_shape;
        Alcotest.test_case "deterministic" `Quick test_web_deterministic;
        Alcotest.test_case "scaling monotone" `Quick test_web_plt_scaling_monotone;
        Alcotest.test_case "sublinear in rtt" `Quick test_web_plt_sublinear_in_rtt;
        Alcotest.test_case "object times" `Quick test_web_object_times;
        Alcotest.test_case "c2s byte fraction" `Quick test_web_c2s_fraction_band;
      ] );
    ( "apps.gaming",
      [
        Alcotest.test_case "speculative wins" `Quick test_gaming_speculative_wins;
        Alcotest.test_case "linear in latency" `Quick test_gaming_linear_in_latency;
        Alcotest.test_case "zero coverage" `Quick test_gaming_coverage_zero_equals_conventional;
        Alcotest.test_case "fat client ratio" `Quick test_gaming_fat_client_ratio;
        Alcotest.test_case "session stats" `Quick test_gaming_session_stats;
      ] );
    ( "apps.econ",
      [
        Alcotest.test_case "search anchors" `Quick test_econ_search_anchors;
        Alcotest.test_case "ecommerce band" `Quick test_econ_ecommerce_band;
        Alcotest.test_case "gaming" `Quick test_econ_gaming;
        Alcotest.test_case "steam" `Quick test_econ_steam;
        Alcotest.test_case "summary" `Quick test_econ_summary_exceeds_cost;
      ] );
  ]
