(* Pipeline-wide structured observability: named counters, float
   series, and nested timed spans, with a human-readable summary sink
   and a Chrome-trace-compatible JSONL sink.

   Contract (see DESIGN.md §7b):
   - observation only: nothing recorded here may feed back into what
     the pipeline computes, so enabling telemetry is bit-identical in
     its effect on every output;
   - domain-safe: counters are atomics, distribution samples buffer in
     domain-private scratch (merged at read-out), spans and trace
     events mutate under one mutex, and all read-out orders are
     canonicalized (names sorted, samples sorted) so merged results do
     not depend on worker scheduling;
   - near-free when disabled: every recording entry point bails on a
     single [!on] branch before touching any shared state. *)

type span_agg = { mutable calls : int; mutable total_s : float }

(* One trace line.  [ph] follows the Chrome trace event format:
   'X' = complete span (ts + dur), 'C' = counter sample. *)
type event = {
  name : string;
  ph : char;
  ts_us : float;
  dur_us : float;
  tid : int;
  value : int;
}

type state = {
  mutex : Mutex.t;
  mutable dbufs : (string * float) list ref list;
      (* every domain's sample buffer, registered (under [mutex]) the
         first time that domain observes; the list itself only grows *)
  spans : (string, span_agg) Hashtbl.t;
  mutable events : event list;
  mutable epoch : float;
  mutable trace_file : string option;
  mutable metrics : bool;
  mutable finished : bool;
}

let state =
  {
    mutex = Mutex.create ();
    dbufs = [];
    spans = Hashtbl.create 64;
    events = [];
    epoch = 0.0;
    trace_file = None;
    metrics = false;
    finished = false;
  }

module SMap = Map.Make (String)

(* Counters live outside the mutex: an immutable name->cell map swapped
   by CAS.  Recording on a hot path (per LOS pair, per pool job — from
   every domain at once) is then one [Atomic.get] of the map, a lock-
   free functional lookup, and one [fetch_and_add]; the mutex-guarded
   table used to serialize all domains on every single increment. *)
let counters : int Atomic.t SMap.t Atomic.t = Atomic.make SMap.empty

(* The single branch guarding every hot-path call site. *)
let on = ref false

let enabled () = !on

let locked f =
  Mutex.lock state.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock state.mutex) f

let turn_on () =
  if not !on then begin
    state.epoch <- Unix.gettimeofday ();
    state.finished <- false;
    on := true
  end

let enable_trace file =
  locked (fun () ->
      state.trace_file <- Some file;
      turn_on ())

let enable_metrics () =
  locked (fun () ->
      state.metrics <- true;
      turn_on ())

let init_from_env () =
  match Sys.getenv_opt "CISP_TRACE" with
  | Some file when not (String.equal (String.trim file) "") -> enable_trace file
  | Some _ | None -> ()

let reset () =
  locked (fun () ->
      on := false;
      Atomic.set counters SMap.empty;
      (* buffers stay registered (their domains will reuse them); only
         their contents go.  Emptying a ref the owner may be consing
         onto is a single word store either way. *)
      List.iter (fun buf -> buf := []) state.dbufs;
      Hashtbl.reset state.spans;
      state.events <- [];
      state.epoch <- 0.0;
      state.trace_file <- None;
      state.metrics <- false;
      state.finished <- false)

(* ---------------- counters ---------------- *)

(* Lock-free: readers never block, and a name's first use installs its
   cell with a CAS retry loop.  A raced insert of the same name is
   harmless — the loser re-reads the map and finds the winner's cell,
   so every domain accumulates into one cell per name. *)
let rec counter_cell name =
  let m = Atomic.get counters in
  match SMap.find_opt name m with
  | Some c -> c
  | None ->
    let c = Atomic.make 0 in
    if Atomic.compare_and_set counters m (SMap.add name c m) then c
    else counter_cell name

let add name k = if !on then ignore (Atomic.fetch_and_add (counter_cell name) k)
let incr name = add name 1

let counter name =
  match SMap.find_opt name (Atomic.get counters) with
  | Some c -> Atomic.get c
  | None -> 0

(* ---------------- float series ---------------- *)

(* Distributions buffer per domain (L14: recording must not funnel
   every worker through [state.mutex]).  A domain's buffer is one ref
   holding an immutable (name, value) cons list, so the owner's store
   is a single word write and never structurally races a merging
   reader; [state.mutex] is only taken once per domain, to register
   the buffer.  Read-out merges every buffer and sorts, so summaries
   stay a pure function of the observed multiset — bit-identical
   whatever the pool width.  Read-outs are coherent for samples
   recorded before the recording domains were joined (or otherwise
   synchronized with the reader), the same quiesce-then-read contract
   the span table has. *)
let series_buf : (string * float) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let buf = ref [] in
      locked (fun () -> state.dbufs <- buf :: state.dbufs);
      buf)

let observe name x =
  if !on then begin
    let buf = Domain.DLS.get series_buf in
    buf := (name, x) :: !buf
  end

(* Sorted, so the distribution read out is a pure function of the
   observed multiset whatever order domains recorded in. *)
let samples name =
  let xs =
    locked (fun () ->
        List.concat_map
          (fun buf ->
            List.filter_map
              (fun (n, x) -> if String.equal n name then Some x else None)
              !buf)
          state.dbufs)
  in
  let xs = Array.of_list xs in
  Array.sort Float.compare xs;
  xs

let series_names () =
  locked (fun () ->
      List.concat_map (fun buf -> List.rev_map fst !buf) state.dbufs)
  |> List.sort_uniq String.compare

(* ---------------- spans ---------------- *)

let record_span name ~tid ~t0 ~t1 =
  locked (fun () ->
      (match Hashtbl.find_opt state.spans name with
      | Some agg ->
        agg.calls <- agg.calls + 1;
        agg.total_s <- agg.total_s +. (t1 -. t0)
      | None -> Hashtbl.add state.spans name { calls = 1; total_s = t1 -. t0 });
      if Option.is_some state.trace_file then
        state.events <-
          {
            name;
            ph = 'X';
            ts_us = (t0 -. state.epoch) *. 1e6;
            dur_us = (t1 -. t0) *. 1e6;
            tid;
            value = 0;
          }
          :: state.events)

let with_span name f =
  if not !on then f ()
  else begin
    let tid = (Domain.self () :> int) in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () -> record_span name ~tid ~t0 ~t1:(Unix.gettimeofday ()))
      f
  end

let span_calls name =
  locked (fun () ->
      match Hashtbl.find_opt state.spans name with Some a -> a.calls | None -> 0)

let span_total_s name =
  locked (fun () ->
      match Hashtbl.find_opt state.spans name with Some a -> a.total_s | None -> 0.0)

(* ---------------- summary sink ---------------- *)

let sorted_keys tbl =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.sort String.compare keys

(* SMap folds in key order already. *)
let counter_names () =
  List.rev (SMap.fold (fun k _ acc -> k :: acc) (Atomic.get counters) [])

let pp_summary ppf () =
  let span_names = locked (fun () -> sorted_keys state.spans) in
  let counter_names = counter_names () in
  let series_names = series_names () in
  Format.fprintf ppf "@[<v>-- telemetry --@,";
  if span_names <> [] then begin
    Format.fprintf ppf "spans:@,";
    List.iter
      (fun name ->
        let calls = span_calls name and total = span_total_s name in
        Format.fprintf ppf "  %-32s %6d call(s)  %10.3f ms@," name calls (total *. 1000.0))
      span_names
  end;
  if counter_names <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter
      (fun name -> Format.fprintf ppf "  %-32s %d@," name (counter name))
      counter_names
  end;
  if series_names <> [] then begin
    Format.fprintf ppf "distributions:@,";
    List.iter
      (fun name ->
        let xs = samples name in
        let sum = Array.fold_left ( +. ) 0.0 xs in
        Format.fprintf ppf "  %-32s %a sum=%.4f@," name Stats.pp_summary
          (Stats.summarize xs) sum)
      series_names
  end;
  Format.fprintf ppf "@]"

(* ---------------- JSONL trace sink ---------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_line e =
  match e.ph with
  | 'C' ->
    Printf.sprintf
      {|{"name":"%s","ph":"C","ts":%.1f,"pid":1,"tid":%d,"args":{"value":%d}}|}
      (json_escape e.name) e.ts_us e.tid e.value
  | _ ->
    Printf.sprintf
      {|{"name":"%s","ph":"X","ts":%.1f,"dur":%.1f,"pid":1,"tid":%d}|}
      (json_escape e.name) e.ts_us e.dur_us e.tid

(* Final counter values and distribution summaries become 'C' events
   stamped at write-out time, so the trace alone carries the totals. *)
let closing_events now_us =
  let counter_names = counter_names () in
  let series_names = series_names () in
  List.map
    (fun name -> { name; ph = 'C'; ts_us = now_us; dur_us = 0.0; tid = 0; value = counter name })
    counter_names
  @ List.map
      (fun name ->
        { name = name ^ ".count"; ph = 'C'; ts_us = now_us; dur_us = 0.0; tid = 0;
          value = Array.length (samples name) })
      series_names

let write_trace () =
  match locked (fun () -> state.trace_file) with
  | None -> ()
  | Some file ->
    let events = locked (fun () -> state.events) in
    let events =
      List.sort
        (fun a b ->
          let c = Float.compare a.ts_us b.ts_us in
          if c <> 0 then c
          else
            let c = Int.compare a.tid b.tid in
            if c <> 0 then c else String.compare a.name b.name)
        events
    in
    let now_us = (Unix.gettimeofday () -. state.epoch) *. 1e6 in
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun e ->
            output_string oc (event_line e);
            output_char oc '\n')
          (events @ closing_events now_us))

let finish ?(ppf = Format.err_formatter) () =
  let first = locked (fun () ->
      if state.finished then false
      else begin
        state.finished <- true;
        true
      end)
  in
  if first then begin
    write_trace ();
    if state.metrics then Format.fprintf ppf "%a@." pp_summary ()
  end
