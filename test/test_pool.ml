open Cisp_util

(* The machine running the tests may have a single core; Pool.create
   still spawns real domains, so every parallel path is exercised
   regardless of [Domain.recommended_domain_count]. *)

let with_pool jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ---------- parallel_for ---------- *)

let test_for_empty () =
  with_pool 4 (fun pool ->
      let calls = Atomic.make 0 in
      Pool.parallel_for pool ~n:0 (fun _ -> Atomic.incr calls);
      Pool.parallel_for pool ~n:(-5) (fun _ -> Atomic.incr calls);
      Alcotest.(check int) "no calls on empty range" 0 (Atomic.get calls))

let test_for_singleton () =
  with_pool 4 (fun pool ->
      let seen = ref (-1) in
      Pool.parallel_for pool ~n:1 (fun i -> seen := i);
      Alcotest.(check int) "index 0 ran" 0 !seen)

let test_for_each_index_once () =
  with_pool 4 (fun pool ->
      let n = 100_000 in
      (* Each slot is written only by the worker owning that index, so
         plain int cells are race-free. *)
      let counts = Array.make n 0 in
      Pool.parallel_for pool ~n (fun i -> counts.(i) <- counts.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (fun c -> c = 1) counts))

let test_for_stress_rounds () =
  (* Many back-to-back jobs on one pool: exercises the generation
     counter and worker re-arming. *)
  with_pool 4 (fun pool ->
      let total = Atomic.make 0 in
      for _ = 1 to 50 do
        Pool.parallel_for pool ~n:997 (fun _ -> Atomic.incr total)
      done;
      Alcotest.(check int) "all rounds complete" (50 * 997) (Atomic.get total))

exception Boom of int

let test_for_exception_propagates () =
  with_pool 4 (fun pool ->
      (try
         Pool.parallel_for pool ~n:10_000 (fun i -> if i = 1234 then raise (Boom i));
         Alcotest.fail "expected Boom to escape parallel_for"
       with Boom i -> Alcotest.(check int) "the worker's exception" 1234 i);
      (* The failed job must not wedge the pool. *)
      let hits = Atomic.make 0 in
      Pool.parallel_for pool ~n:64 (fun _ -> Atomic.incr hits);
      Alcotest.(check int) "pool reusable after a failed job" 64 (Atomic.get hits))

let test_for_nested () =
  (* A parallel_for issued from inside a worker task must degrade to
     sequential instead of deadlocking on the busy pool. *)
  with_pool 4 (fun pool ->
      let total = Atomic.make 0 in
      Pool.parallel_for pool ~n:8 (fun _ ->
          Pool.parallel_for pool ~n:8 (fun _ -> Atomic.incr total));
      Alcotest.(check int) "inner loops all ran" 64 (Atomic.get total))

let test_for_after_shutdown () =
  let pool = Pool.create ~jobs:4 in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  let hits = ref 0 in
  Pool.parallel_for pool ~n:10 (fun _ -> incr hits);
  Alcotest.(check int) "sequential fallback after shutdown" 10 !hits

(* ---------- short-circuit vs parallel telemetry ---------- *)

let test_short_circuit_telemetry () =
  (* The small-[n] short-circuit must record the same counter family
     as a real parallel job — one job, all indices run — so scheduling
     telemetry stays coherent whichever path a loop takes. *)
  let observe f =
    Telemetry.reset ();
    Telemetry.enable_metrics ();
    let hits = Atomic.make 0 in
    f hits;
    let stats =
      ( Atomic.get hits,
        Telemetry.counter "pool.jobs",
        Telemetry.counter "pool.jobs.seq",
        Telemetry.counter "pool.chunks" )
    in
    Telemetry.reset ();
    stats
  in
  with_pool 4 (fun pool ->
      (* min_chunk covers the whole range: short-circuits on the caller. *)
      let seq_hits, seq_par_jobs, seq_seq_jobs, seq_chunks =
        observe (fun hits ->
            Pool.parallel_for ~min_chunk:64 pool ~n:32 (fun _ -> Atomic.incr hits))
      in
      (* Same range through the parallel path (chunk = 1 at width 4). *)
      let par_hits, par_par_jobs, par_seq_jobs, par_chunks =
        observe (fun hits ->
            Pool.parallel_for ~min_chunk:1 pool ~n:32 (fun _ -> Atomic.incr hits))
      in
      Alcotest.(check int) "short-circuit runs every index" 32 seq_hits;
      Alcotest.(check int) "parallel runs every index" 32 par_hits;
      Alcotest.(check int) "short-circuit: one sequential job" 1 seq_seq_jobs;
      Alcotest.(check int) "short-circuit: no parallel job" 0 seq_par_jobs;
      Alcotest.(check int) "short-circuit: one chunk spans the range" 1 seq_chunks;
      Alcotest.(check int) "parallel: one parallel job" 1 par_par_jobs;
      Alcotest.(check int) "parallel: no sequential job" 0 par_seq_jobs;
      Alcotest.(check int) "parallel: one chunk per index" 32 par_chunks)

let test_with_default_jobs_restores () =
  let before = Pool.default_jobs () in
  let inside = Pool.with_default_jobs 3 Pool.default_jobs in
  Alcotest.(check int) "forced inside" 3 inside;
  Alcotest.(check int) "restored" before (Pool.default_jobs ());
  (try Pool.with_default_jobs 2 (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "restored after an exception" before (Pool.default_jobs ())

(* ---------- Scratch ---------- *)

let test_scratch_per_domain () =
  let counter = Atomic.make 0 in
  let key = Scratch.create (fun () -> Atomic.fetch_and_add counter 1) in
  let a = Scratch.get key in
  Alcotest.(check int) "same domain reuses its instance" a (Scratch.get key);
  with_pool 3 (fun pool ->
      let n = 64 in
      let tags = Array.make n (-1) in
      let doms = Array.make n (-1) in
      Pool.parallel_for pool ~n (fun i ->
          tags.(i) <- Scratch.get key;
          doms.(i) <- (Domain.self () :> int));
      (* Within a domain the instance is stable... *)
      let by_dom = Hashtbl.create 8 in
      Array.iteri
        (fun i d ->
          match Hashtbl.find_opt by_dom d with
          | None -> Hashtbl.add by_dom d tags.(i)
          | Some t -> Alcotest.(check int) "stable within a domain" t tags.(i))
        doms;
      (* ...and no two domains share one (init ran once per domain). *)
      let distinct =
        List.sort_uniq Int.compare (Hashtbl.fold (fun _ t acc -> t :: acc) by_dom [])
      in
      Alcotest.(check int) "one instance per domain"
        (Hashtbl.length by_dom) (List.length distinct))

let test_scratch_keys_independent () =
  let k1 = Scratch.create (fun () -> ref 1) in
  let k2 = Scratch.create (fun () -> ref 2) in
  Alcotest.(check bool) "separate slots" true (Scratch.get k1 != Scratch.get k2);
  Scratch.get k1 := 10;
  Alcotest.(check int) "no cross-talk" 2 !(Scratch.get k2)

let suites =
  [
    ( "util.pool",
      [
        Alcotest.test_case "for: empty range" `Quick test_for_empty;
        Alcotest.test_case "for: singleton range" `Quick test_for_singleton;
        Alcotest.test_case "for: each index once" `Quick test_for_each_index_once;
        Alcotest.test_case "for: stress rounds" `Quick test_for_stress_rounds;
        Alcotest.test_case "for: exception propagates" `Quick test_for_exception_propagates;
        Alcotest.test_case "for: nested use is safe" `Quick test_for_nested;
        Alcotest.test_case "for: after shutdown" `Quick test_for_after_shutdown;
        Alcotest.test_case "short-circuit vs parallel telemetry" `Quick
          test_short_circuit_telemetry;
        Alcotest.test_case "with_default_jobs restores" `Quick test_with_default_jobs_restores;
        Alcotest.test_case "scratch: one instance per domain" `Quick test_scratch_per_domain;
        Alcotest.test_case "scratch: keys independent" `Quick test_scratch_keys_independent;
      ] );
  ]
