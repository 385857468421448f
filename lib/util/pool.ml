(* A job is one parallel_for: workers (and the submitter) pull
   fixed-size chunks of the index range from a shared atomic counter.
   Chunk boundaries affect only scheduling, never results, because
   each index owns its output slot. *)

type job = {
  fn : int -> unit;
  n : int;
  chunk : int;
  next : int Atomic.t;
  cancelled : bool Atomic.t;
  (* Scheduling telemetry, accumulated lock-free by each domain at
     slice end and flushed to [Telemetry] once per job by the
     submitter: workers never touch the telemetry tables (whose name
     lookup serializes on a shared structure) from inside a job. *)
  tel_chunks : int Atomic.t;
  tel_busy_us : int Atomic.t;
  mutable active : int; (* workers currently inside the job; pool mutex *)
  mutable failure : (exn * Printexc.raw_backtrace) option; (* pool mutex *)
}

type t = {
  width : int;
  mutex : Mutex.t;
  work : Condition.t; (* new job published, or shutdown *)
  finished : Condition.t; (* a worker left the job *)
  mutable current : job option;
  mutable generation : int;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
}

(* True while the current domain is executing a job body: nested
   submissions from inside a task run sequentially instead of
   deadlocking on the (busy) pool. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Sequential execution of a whole range (width 1, nested
   submissions, and the small-[n] short-circuit) records the same
   counter family as a parallel job — one job, one chunk spanning the
   range — so the scheduling telemetry stays coherent whichever path a
   loop takes. *)
let sequential_job n fn =
  if Telemetry.enabled () then begin
    Telemetry.incr "pool.jobs.seq";
    Telemetry.add "pool.chunks" 1
  end;
  for i = 0 to n - 1 do
    fn i
  done

let run_slice pool job =
  let saved = Domain.DLS.get in_task in
  Domain.DLS.set in_task true;
  (* Telemetry observes scheduling only (chunks claimed, time this
     domain spent inside the job); it never affects which indices run
     where, so results stay bit-identical with it on or off. *)
  let tel = Telemetry.enabled () in
  let t0 = if tel then Unix.gettimeofday () else 0.0 in
  let chunks = ref 0 in
  let rec loop () =
    if not (Atomic.get job.cancelled) then begin
      let start = Atomic.fetch_and_add job.next job.chunk in
      if start < job.n then begin
        incr chunks;
        let stop = min job.n (start + job.chunk) in
        (try
           for i = start to stop - 1 do
             job.fn i
           done
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Atomic.set job.cancelled true;
           Mutex.lock pool.mutex;
           (match job.failure with
           | None -> job.failure <- Some (e, bt)
           | Some _ -> ());
           Mutex.unlock pool.mutex);
        loop ()
      end
    end
  in
  loop ();
  if tel then begin
    let busy = Unix.gettimeofday () -. t0 in
    ignore (Atomic.fetch_and_add job.tel_chunks !chunks);
    ignore (Atomic.fetch_and_add job.tel_busy_us (int_of_float (busy *. 1e6)))
  end;
  Domain.DLS.set in_task saved

let rec worker_loop pool seen_generation =
  Mutex.lock pool.mutex;
  while (not pool.stopped) && pool.generation = seen_generation do
    Condition.wait pool.work pool.mutex
  done;
  if pool.stopped then Mutex.unlock pool.mutex
  else begin
    let generation = pool.generation in
    match pool.current with
    | None ->
      Mutex.unlock pool.mutex;
      worker_loop pool generation
    | Some job ->
      job.active <- job.active + 1;
      Mutex.unlock pool.mutex;
      run_slice pool job;
      Mutex.lock pool.mutex;
      job.active <- job.active - 1;
      if job.active = 0 then Condition.broadcast pool.finished;
      Mutex.unlock pool.mutex;
      worker_loop pool generation
  end

let create ~jobs:requested =
  let width = max 1 requested in
  let pool =
    {
      width;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      current = None;
      generation = 0;
      stopped = false;
      workers = [];
    }
  in
  if width > 1 then
    pool.workers <- List.init (width - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool 0));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  if pool.stopped then Mutex.unlock pool.mutex
  else begin
    pool.stopped <- true;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

(* One loop on a woken pool.  Over-decompose ~8 chunks per worker so
   a slow chunk cannot serialize the tail of the range, but never below
   [min_chunk]: the caller's cost hint for how many indices it takes
   before one claim of the shared counter is worth its cache-line
   bounce. *)
let run_job pool ~min_chunk ~n fn =
  let chunk = max min_chunk (n / (pool.width * 8)) in
  Mutex.lock pool.mutex;
  if pool.stopped || Option.is_some pool.current then begin
    (* Pool busy (submission from another domain mid-job) or already
       replaced by a resize: run on the caller.  Same results, just
       sequential. *)
    Mutex.unlock pool.mutex;
    sequential_job n fn
  end
  else begin
    let job =
      {
        fn;
        n;
        chunk;
        next = Atomic.make 0;
        cancelled = Atomic.make false;
        tel_chunks = Atomic.make 0;
        tel_busy_us = Atomic.make 0;
        active = 0;
        failure = None;
      }
    in
    let tel = Telemetry.enabled () in
    if tel then Telemetry.incr "pool.jobs";
    pool.current <- Some job;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    run_slice pool job;
    Mutex.lock pool.mutex;
    while job.active > 0 do
      Condition.wait pool.finished pool.mutex
    done;
    pool.current <- None;
    Mutex.unlock pool.mutex;
    (* One flush per job (not per domain per job): the workers only
       touched the job-local atomics above. *)
    if tel then begin
      Telemetry.add "pool.chunks" (Atomic.get job.tel_chunks);
      Telemetry.observe "pool.job_busy_s"
        (float_of_int (Atomic.get job.tel_busy_us) /. 1e6)
    end;
    match job.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

(* ---------- default pool ---------- *)

let env_jobs () =
  match Sys.getenv_opt "CISP_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some k when k >= 1 -> Some k
    | Some _ | None -> None)

(* The pool is process-global state, and top-level loops may be
   submitted from several domains at once, so creation/resize must not
   race a concurrent [get] in another domain. *)
let default_lock = Mutex.create ()
let override = ref None
let instance = ref None

let default_jobs () =
  match !override with
  | Some k -> k
  | None -> (
    match env_jobs () with
    | Some k -> k
    | None -> max 1 (Domain.recommended_domain_count ()))

let set_default_jobs k =
  Mutex.protect default_lock (fun () -> override := Some (max 1 k))

let get () =
  Mutex.protect default_lock (fun () ->
      let want = default_jobs () in
      match !instance with
      | Some pool when pool.width = want && not pool.stopped -> pool
      | Some pool ->
        shutdown pool;
        let fresh = create ~jobs:want in
        instance := Some fresh;
        fresh
      | None ->
        let fresh = create ~jobs:want in
        instance := Some fresh;
        fresh)

(* Nested loops and loops that fit in one chunk run inline before the
   registry is consulted: a worker body never takes [default_lock], and
   neither does a small loop.  At width 1 every chunk would go to the
   submitter anyway. *)
let parallel_for ?(min_chunk = 1) ~n fn =
  let min_chunk = max 1 min_chunk in
  if n <= 0 then ()
  else if n <= min_chunk || Domain.DLS.get in_task then sequential_job n fn
  else begin
    let pool = get () in
    if pool.width = 1 then sequential_job n fn else run_job pool ~min_chunk ~n fn
  end

let with_default_jobs k f =
  let saved = Mutex.protect default_lock (fun () -> !override) in
  set_default_jobs k;
  Fun.protect ~finally:(fun () ->
      Mutex.protect default_lock (fun () -> override := saved)) f

(* Worker domains block on [work] between jobs; join them at exit so
   the runtime shuts down cleanly. *)
let () =
  at_exit (fun () ->
      match !instance with
      | Some pool -> shutdown pool
      | None -> ())
