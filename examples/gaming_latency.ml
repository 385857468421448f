(* Gaming over cISP (paper §7.1 / Fig 12): what a 1/3-latency network
   does to thin-client and fat-client games:

     dune exec examples/gaming_latency.exe *)

open Cisp

let () =
  Printf.printf "thin-client frame time (ms) as network latency grows:\n";
  Printf.printf "%-14s %-14s %-14s\n" "one-way ms" "conventional" "speculative+cISP";
  List.iter
    (fun l ->
      Printf.printf "%-14.0f %-14.1f %-14.1f\n" l
        (Apps.Gaming.frame_time_ms Apps.Gaming.Thin_conventional ~one_way_ms:l)
        (Apps.Gaming.frame_time_ms Apps.Gaming.Thin_speculative_cisp ~one_way_ms:l))
    [ 10.0; 30.0; 60.0; 90.0; 120.0 ];
  (* Sessions with jitter and imperfect speculation. *)
  let params = { Apps.Gaming.speculation_coverage = 0.9 } in
  let s =
    Apps.Gaming.simulate_session ~params Apps.Gaming.Thin_speculative_cisp ~one_way_ms:60.0
      ~inputs:20_000
  in
  Printf.printf "\n90%%-coverage speculation at 60 ms one-way: p50=%.0f ms, p95=%.0f ms, p99=%.0f ms\n"
    s.Util.Stats.p50 s.Util.Stats.p95 s.Util.Stats.p99;
  (* The economics (paper §8): what a gamer's dollar says. *)
  Printf.printf "a $4/month 'accelerated VPN' values low latency at $%.1f per GB;\n"
    (Apps.Econ.gaming_value_per_gb ());
  Printf.printf "cISP delivers it at well under $1 per GB.\n"
