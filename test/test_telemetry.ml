(* Cisp_util.Telemetry: counter/series/span semantics, the disabled
   no-op path, deterministic merging of parallel increments, and the
   JSONL trace sink (validated with a small test-local JSON parser). *)

module Telemetry = Cisp_util.Telemetry
module Pool = Cisp_util.Pool

(* Every test owns the global telemetry state: start clean, leave it
   off for whoever runs next. *)
let with_clean f =
  Telemetry.reset ();
  Fun.protect ~finally:Telemetry.reset f

let test_disabled_noop () =
  with_clean (fun () ->
      Alcotest.(check bool) "disabled by default" false (Telemetry.enabled ());
      Telemetry.incr "t.c";
      Telemetry.add "t.c" 41;
      Telemetry.observe "t.s" 1.0;
      let r = Telemetry.with_span "t.span" (fun () -> 7) in
      Alcotest.(check int) "with_span passes the value through" 7 r;
      Alcotest.(check int) "counter untouched" 0 (Telemetry.counter "t.c");
      Alcotest.(check int) "no samples" 0 (Array.length (Telemetry.samples "t.s"));
      Alcotest.(check int) "no span recorded" 0 (Telemetry.span_calls "t.span"))

let test_counters () =
  with_clean (fun () ->
      Telemetry.enable_metrics ();
      Alcotest.(check bool) "enabled" true (Telemetry.enabled ());
      Telemetry.incr "t.c";
      Telemetry.add "t.c" 41;
      Alcotest.(check int) "accumulates" 42 (Telemetry.counter "t.c");
      Alcotest.(check int) "unknown name reads 0" 0 (Telemetry.counter "t.other"))

let test_series () =
  with_clean (fun () ->
      Telemetry.enable_metrics ();
      List.iter (Telemetry.observe "t.s") [ 3.0; 1.0; 2.0 ];
      Alcotest.(check (array (float 0.0)))
        "samples come back sorted" [| 1.0; 2.0; 3.0 |] (Telemetry.samples "t.s"))

let test_spans () =
  with_clean (fun () ->
      Telemetry.enable_metrics ();
      let r =
        Telemetry.with_span "t.outer" (fun () ->
            Telemetry.with_span "t.inner" (fun () -> ())
            ; 11)
      in
      Alcotest.(check int) "value through nested spans" 11 r;
      Alcotest.(check int) "outer recorded" 1 (Telemetry.span_calls "t.outer");
      Alcotest.(check int) "inner recorded" 1 (Telemetry.span_calls "t.inner");
      Alcotest.(check bool) "outer >= inner time" true
        (Telemetry.span_total_s "t.outer" >= Telemetry.span_total_s "t.inner");
      (* A raising thunk still records its span (and re-raises). *)
      (try Telemetry.with_span "t.raise" (fun () -> failwith "boom") with
      | Failure _ -> ());
      Alcotest.(check int) "raising span recorded" 1 (Telemetry.span_calls "t.raise"))

let test_parallel_merge () =
  let total width =
    with_clean (fun () ->
        Telemetry.enable_metrics ();
        Pool.with_default_jobs width (fun () ->
            Pool.parallel_for ~n:1000 (fun i ->
                Telemetry.incr "t.par";
                Telemetry.add "t.par" (i mod 3);
                Telemetry.observe "t.par_s" (float_of_int (i mod 7))));
        (Telemetry.counter "t.par", Telemetry.samples "t.par_s"))
  in
  let c1, s1 = total 1 in
  let c4, s4 = total 4 in
  Alcotest.(check int) "counter total at jobs=1" (1000 + 999) c1;
  Alcotest.(check int) "counter merges identically at jobs=4" c1 c4;
  Alcotest.(check (array (float 0.0))) "sorted samples identical" s1 s4

let test_stress_jobs8 () =
  (* 8 domains hammer the lock-free counters and the per-domain sample
     buffers at once: totals must be exact (no lost updates) and the
     merged distribution a pure function of the observed multiset. *)
  let n = 4096 in
  with_clean (fun () ->
      Telemetry.enable_metrics ();
      Pool.with_default_jobs 8 (fun () ->
          Pool.parallel_for ~n (fun i ->
              Telemetry.incr "t.stress";
              Telemetry.add "t.stress.sum" i;
              Telemetry.observe "t.stress_s" (float_of_int (i mod 16))));
      Alcotest.(check int) "every increment lands" n (Telemetry.counter "t.stress");
      Alcotest.(check int) "exact sum, no lost update" (n * (n - 1) / 2)
        (Telemetry.counter "t.stress.sum");
      let s = Telemetry.samples "t.stress_s" in
      Alcotest.(check int) "every observation lands" n (Array.length s);
      (* sorted merge: exactly n/16 of each residue, ascending *)
      Array.iteri
        (fun k x ->
          let expected = float_of_int (k / (n / 16)) in
          if x <> expected then
            Alcotest.failf "merged sample %d: %g, expected %g" k x expected)
        s;
      Alcotest.(check bool) "series visible in the name index" true
        (List.mem "t.stress_s" (Telemetry.series_names ())))

(* ---------------- JSONL sink ---------------- *)

(* Minimal JSON value parser: enough to verify every trace line is a
   standalone, well-formed object with the Chrome-trace keys. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some '/' -> Buffer.add_char b '/'; advance ()
        | Some 'b' -> Buffer.add_char b '\b'; advance ()
        | Some 'f' -> Buffer.add_char b '\012'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "short \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
          | Some _ -> Buffer.add_char b '?' (* non-ASCII: presence is enough *)
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> list_ ()
    | Some '"' -> Str (string_ ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (number ())
    | _ -> fail "expected a value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin advance (); Obj [] end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws ();
        let k = string_ () in
        skip_ws ();
        expect ':';
        let v = value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); members ()
        | Some '}' -> advance ()
        | _ -> fail "expected , or }"
      in
      members ();
      Obj (List.rev !fields)
    end
  and list_ () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin advance (); List [] end
    else begin
      let items = ref [] in
      let rec elements () =
        items := value () :: !items;
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); elements ()
        | Some ']' -> advance ()
        | _ -> fail "expected , or ]"
      in
      elements ();
      List (List.rev !items)
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field k = function Obj fields -> List.assoc_opt k fields | _ -> None

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_trace_sink () =
  let file = Filename.temp_file "cisp_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      with_clean (fun () ->
          Telemetry.enable_trace file;
          Telemetry.with_span "t.span \"quoted\"" (fun () -> Telemetry.incr "t.hits");
          Telemetry.add "t.hits" 2;
          Telemetry.observe "t.load" 0.5;
          Telemetry.finish ~ppf:Format.err_formatter ();
          let lines = read_lines file in
          Alcotest.(check bool) "trace has lines" true (List.length lines >= 3);
          let parsed = List.map parse_json lines in
          List.iter
            (fun j ->
              Alcotest.(check bool) "line is an object with name/ph/ts" true
                (Option.is_some (field "name" j)
                && Option.is_some (field "ph" j)
                && Option.is_some (field "ts" j)))
            parsed;
          let span =
            List.find_opt (fun j -> field "name" j = Some (Str "t.span \"quoted\"")) parsed
          in
          (match span with
          | None -> Alcotest.fail "span event missing (or name escaping broke)"
          | Some j ->
            Alcotest.(check bool) "span is a complete event" true (field "ph" j = Some (Str "X"));
            (match field "dur" j with
            | Some (Num d) -> Alcotest.(check bool) "span duration >= 0" true (d >= 0.0)
            | _ -> Alcotest.fail "span event lacks a numeric dur"));
          let counter_value name =
            List.find_map
              (fun j ->
                if field "name" j = Some (Str name) && field "ph" j = Some (Str "C") then
                  match field "args" j with
                  | Some args -> (
                      match field "value" args with Some (Num v) -> Some v | _ -> None)
                  | None -> None
                else None)
              parsed
          in
          Alcotest.(check (option (float 0.0)))
            "final counter value in trace" (Some 3.0) (counter_value "t.hits");
          Alcotest.(check (option (float 0.0)))
            "series count in trace" (Some 1.0) (counter_value "t.load.count");
          (* finish is idempotent: a second call must not rewrite. *)
          Sys.remove file;
          Telemetry.finish ~ppf:Format.err_formatter ();
          Alcotest.(check bool) "second finish is a no-op" false (Sys.file_exists file)))

let test_summary_output () =
  with_clean (fun () ->
      Telemetry.enable_metrics ();
      Telemetry.incr "t.c";
      Telemetry.observe "t.s" 4.0;
      Telemetry.with_span "t.span" (fun () -> ());
      let s = Format.asprintf "%a" Telemetry.pp_summary () in
      List.iter
        (fun needle ->
          let found =
            let ls = String.length s and ln = String.length needle in
            let rec at i = i + ln <= ls && (String.equal (String.sub s i ln) needle || at (i + 1)) in
            at 0
          in
          Alcotest.(check bool) (Printf.sprintf "summary mentions %s" needle) true found)
        [ "-- telemetry --"; "t.c"; "t.s"; "t.span"; "spans:"; "counters:"; "distributions:" ])

let suites =
  [
    ( "telemetry",
      [
        Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "counters" `Quick test_counters;
        Alcotest.test_case "series" `Quick test_series;
        Alcotest.test_case "spans" `Quick test_spans;
        Alcotest.test_case "parallel merge at jobs 1/4" `Quick test_parallel_merge;
        Alcotest.test_case "stress at jobs 8" `Slow test_stress_jobs8;
        Alcotest.test_case "JSONL trace sink" `Quick test_trace_sink;
        Alcotest.test_case "summary sink" `Quick test_summary_output;
      ] );
  ]
