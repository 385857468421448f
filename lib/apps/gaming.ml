type params = { speculation_coverage : float }

(* Pacman: all 4 directions speculated. *)
let default_params = { speculation_coverage = 1.0 }

(* The model's constants (gaming.mli): per-frame processing, cISP's
   latency relative to the Internet's (paper §7), and the session RNG
   seed. *)
let server_tick_ms = 8.0
let render_ms = 12.0
let cisp_latency_factor = 1.0 /. 3.0
let session_seed = 5

type mode = Thin_conventional | Thin_speculative_cisp | Fat_conventional | Fat_cisp

let frame_time_ms ?(params = default_params) mode ~one_way_ms =
  let proc = server_tick_ms +. render_ms in
  match mode with
  | Thin_conventional -> (2.0 *. one_way_ms) +. proc
  | Thin_speculative_cisp ->
    let fast = 2.0 *. one_way_ms *. cisp_latency_factor in
    let slow = 2.0 *. one_way_ms in
    (* Misses fall back to a conventional round trip for the frame. *)
    (params.speculation_coverage *. fast)
    +. ((1.0 -. params.speculation_coverage) *. slow)
    +. proc
  | Fat_conventional -> (2.0 *. one_way_ms) +. proc
  | Fat_cisp -> (2.0 *. one_way_ms *. cisp_latency_factor) +. proc

let simulate_session ?(params = default_params) mode ~one_way_ms ~inputs =
  let rng = Cisp_util.Rng.create session_seed in
  let samples =
    Array.init inputs (fun _ ->
        (* jitter on processing and network *)
        let jitter = Cisp_util.Rng.uniform rng 0.9 1.25 in
        let miss = Cisp_util.Rng.float rng 1.0 > params.speculation_coverage in
        let base =
          match mode with
          | Thin_speculative_cisp when miss ->
            frame_time_ms ~params Thin_conventional ~one_way_ms
          | m -> frame_time_ms ~params:{ speculation_coverage = 1.0 } m ~one_way_ms
        in
        base *. jitter)
  in
  Cisp_util.Stats.summarize samples
