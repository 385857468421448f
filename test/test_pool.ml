open Cisp_util

(* Every case sets the width of the one process-wide pool.  The
   machine running the tests may have a single core; a width above 1
   still spawns real domains, so every parallel path is exercised
   regardless of [Domain.recommended_domain_count]. *)

(* ---------- parallel_for ---------- *)

let test_for_empty () =
  Pool.with_default_jobs 4 (fun () ->
      let calls = Atomic.make 0 in
      Pool.parallel_for ~n:0 (fun _ -> Atomic.incr calls);
      Pool.parallel_for ~n:(-5) (fun _ -> Atomic.incr calls);
      Alcotest.(check int) "no calls on empty range" 0 (Atomic.get calls))

let test_for_singleton () =
  Pool.with_default_jobs 4 (fun () ->
      let seen = ref (-1) in
      Pool.parallel_for ~n:1 (fun i -> seen := i);
      Alcotest.(check int) "index 0 ran" 0 !seen)

let test_for_each_index_once () =
  Pool.with_default_jobs 4 (fun () ->
      let n = 100_000 in
      (* Each slot is written only by the worker owning that index, so
         plain int cells are race-free. *)
      let counts = Array.make n 0 in
      Pool.parallel_for ~n (fun i -> counts.(i) <- counts.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (fun c -> c = 1) counts))

let test_for_stress_rounds () =
  (* Many back-to-back jobs on one pool: exercises the generation
     counter and worker re-arming. *)
  Pool.with_default_jobs 4 (fun () ->
      let total = Atomic.make 0 in
      for _ = 1 to 50 do
        Pool.parallel_for ~n:997 (fun _ -> Atomic.incr total)
      done;
      Alcotest.(check int) "all rounds complete" (50 * 997) (Atomic.get total))

exception Boom of int

let test_for_exception_propagates () =
  Pool.with_default_jobs 4 (fun () ->
      (try
         Pool.parallel_for ~n:10_000 (fun i -> if i = 1234 then raise (Boom i));
         Alcotest.fail "expected Boom to escape parallel_for"
       with Boom i -> Alcotest.(check int) "the worker's exception" 1234 i);
      (* The failed job must not wedge the pool. *)
      let hits = Atomic.make 0 in
      Pool.parallel_for ~n:64 (fun _ -> Atomic.incr hits);
      Alcotest.(check int) "pool reusable after a failed job" 64 (Atomic.get hits))

let test_for_nested () =
  (* A parallel_for issued from inside a worker task must run inline on
     that task's domain instead of deadlocking on the busy pool. *)
  Pool.with_default_jobs 4 (fun () ->
      let total = Atomic.make 0 in
      let outer = Array.make 8 (-1) in
      let inner = Array.init 8 (fun _ -> Array.make 8 (-1)) in
      Pool.parallel_for ~n:8 (fun i ->
          outer.(i) <- (Domain.self () :> int);
          Pool.parallel_for ~n:8 (fun j ->
              Atomic.incr total;
              inner.(i).(j) <- (Domain.self () :> int)));
      Alcotest.(check int) "inner loops all ran" 64 (Atomic.get total);
      Array.iteri
        (fun i issuer ->
          Array.iter
            (Alcotest.(check int) (Printf.sprintf "inner loop %d on its issuer's domain" i) issuer)
            inner.(i))
        outer)

let test_for_resizes () =
  (* The pool follows the requested width: a loop that wakes it after a
     width change replaces it (joining the old workers), and width 1
     runs every loop inline.  Widths 4 -> 2 -> 1 -> 4 go through the
     registry's replace path at every step after the first. *)
  let n = 1000 in
  List.iter
    (fun width ->
      Telemetry.reset ();
      Telemetry.enable_metrics ();
      Fun.protect ~finally:Telemetry.reset (fun () ->
          let counts = Array.make n 0 in
          Pool.with_default_jobs width (fun () ->
              Pool.parallel_for ~n (fun i -> counts.(i) <- counts.(i) + 1));
          Alcotest.(check bool)
            (Printf.sprintf "every index exactly once at width %d" width)
            true
            (Array.for_all (fun c -> c = 1) counts);
          Alcotest.(check (pair int int))
            (Printf.sprintf "(pool.jobs, pool.jobs.seq) at width %d" width)
            (if width > 1 then (1, 0) else (0, 1))
            (Telemetry.counter "pool.jobs", Telemetry.counter "pool.jobs.seq")))
    [ 4; 2; 1; 4 ]

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
  Pool.with_default_jobs 4 (fun () ->
      (* min_chunk covers the whole range: short-circuits on the caller. *)
      let seq_hits, seq_par_jobs, seq_seq_jobs, seq_chunks =
        observe (fun hits ->
            Pool.parallel_for ~min_chunk:64 ~n:32 (fun _ -> Atomic.incr hits))
      in
      (* Same range through the parallel path (chunk = 1 at width 4). *)
      let par_hits, par_par_jobs, par_seq_jobs, par_chunks =
        observe (fun hits ->
            Pool.parallel_for ~min_chunk:1 ~n:32 (fun _ -> Atomic.incr hits))
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
        Alcotest.test_case "for: default pool resizes" `Quick test_for_resizes;
        Alcotest.test_case "short-circuit vs parallel telemetry" `Quick
          test_short_circuit_telemetry;
        Alcotest.test_case "with_default_jobs restores" `Quick test_with_default_jobs_restores;
      ] );
  ]
