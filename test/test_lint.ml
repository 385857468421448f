(* The lint pass (lib/lint) against the seeded fixtures in
   test/fixtures: every rule L1-L15 must fire on its bad_l*.ml at the
   expected file:line, and must stay silent on good.ml/good.mli. *)

module Diag = Cisp_linter.Diag
module Allowlist = Cisp_linter.Allowlist
module Engine = Cisp_linter.Engine
module Rules = Cisp_linter.Rules

(* Under `dune runtest` the cwd is _build/default/test, under
   `dune exec` it is wherever the user ran it from; find the fixture
   tree (and its .objs directory full of .cmt files) from either. *)
let fixtures_root =
  let candidates =
    [ "fixtures"; "_build/default/test/fixtures"; "test/fixtures" ]
  in
  let is_dir p = Sys.file_exists p && Sys.is_directory p in
  match List.find_opt is_dir candidates with
  | Some p -> p
  | None -> "fixtures"

let report = lazy (Engine.run [ fixtures_root ])

let diags () = (Lazy.force report).Engine.diagnostics

let in_file file (d : Diag.t) = String.equal (Filename.basename d.file) file

let count ~rule ~file =
  List.length (List.filter (fun (d : Diag.t) -> d.rule = rule && in_file file d) (diags ()))

let check_hit ~rule ~file ~line =
  let hit =
    List.exists
      (fun (d : Diag.t) -> d.rule = rule && in_file file d && d.line = line)
      (diags ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s fires at %s:%d" (Diag.rule_id rule) file line)
    true hit

let test_loader () =
  let r = Lazy.force report in
  Alcotest.(check bool) "decodes the fixture units" true (r.Engine.units_checked >= 8);
  Alcotest.(check (list string)) "no decode errors" [] r.Engine.errors

let test_l1_positive () =
  check_hit ~rule:Diag.L1 ~file:"bad_l1.ml" ~line:2;
  check_hit ~rule:Diag.L1 ~file:"bad_l1.ml" ~line:3

let test_l1_negative () =
  (* compare at int (line 6) must not fire; exactly the two seeded hits. *)
  Alcotest.(check int) "two L1 hits" 2 (count ~rule:Diag.L1 ~file:"bad_l1.ml")

let test_l2_positive () =
  List.iter (fun line -> check_hit ~rule:Diag.L2 ~file:"bad_l2.ml" ~line) [ 2; 3; 4; 5 ]

let test_l2_negative () =
  (* good.ml uses List.nth_opt / Option.value: total, silent. *)
  Alcotest.(check int) "no L2 in good.ml" 0 (count ~rule:Diag.L2 ~file:"good.ml")

let test_l3_positive () =
  List.iter (fun line -> check_hit ~rule:Diag.L3 ~file:"bad_l3.ml" ~line) [ 2; 3; 4 ]

let test_l3_negative () =
  (* the unprotected 42.75 literal must not fire *)
  Alcotest.(check int) "three L3 hits" 3 (count ~rule:Diag.L3 ~file:"bad_l3.ml")

let test_l4_positive () =
  (* `scale` has two unit-less floats, `speed` one unit-less label. *)
  check_hit ~rule:Diag.L4 ~file:"bad_l4.mli" ~line:2;
  check_hit ~rule:Diag.L4 ~file:"bad_l4.mli" ~line:3;
  Alcotest.(check int) "three L4 hits" 3 (count ~rule:Diag.L4 ~file:"bad_l4.mli")

let test_l4_negative () =
  (* unit-suffixed labels and name-suffix riding are accepted *)
  Alcotest.(check int) "no L4 in good.mli" 0 (count ~rule:Diag.L4 ~file:"good.mli")

let test_l5_positive () =
  check_hit ~rule:Diag.L5 ~file:"bad_l5.ml" ~line:2;
  check_hit ~rule:Diag.L5 ~file:"bad_l5.ml" ~line:3

let test_l5_negative () =
  Alcotest.(check int) "no L5 in good.ml" 0 (count ~rule:Diag.L5 ~file:"good.ml")

let test_l6_positive () =
  check_hit ~rule:Diag.L6 ~file:"bad_l6.ml" ~line:3;
  check_hit ~rule:Diag.L6 ~file:"bad_l6.ml" ~line:7

let test_l6_negative () =
  (* `assert false' (line 11) is the unreachable marker: exempt. *)
  Alcotest.(check int) "two L6 hits" 2 (count ~rule:Diag.L6 ~file:"bad_l6.ml")

let test_good_is_clean () =
  let bad = List.filter (fun d -> in_file "good.ml" d || in_file "good.mli" d) (diags ()) in
  Alcotest.(check (list string)) "good fixtures are clean" []
    (List.map Diag.to_string bad)

let test_symbols () =
  let sym rule file line =
    match
      List.find_opt
        (fun (d : Diag.t) -> d.rule = rule && in_file file d && d.line = line)
        (diags ())
    with
    | Some d -> d.Diag.symbol
    | None -> "<missing>"
  in
  Alcotest.(check string) "L1 symbol" "sort_by_distance" (sym Diag.L1 "bad_l1.ml" 2);
  Alcotest.(check string) "L5 symbol" "shout" (sym Diag.L5 "bad_l5.ml" 2);
  Alcotest.(check string) "L4 symbol" "scale" (sym Diag.L4 "bad_l4.mli" 2)

let test_diag_format () =
  match List.find_opt (fun d -> in_file "bad_l2.ml" d) (diags ()) with
  | None -> Alcotest.fail "expected a bad_l2.ml diagnostic"
  | Some d ->
      let s = Diag.to_string d in
      let has_sub sub =
        let ls = String.length s and lu = String.length sub in
        let rec at i = i + lu <= ls && (String.equal (String.sub s i lu) sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "has file:line" true (has_sub "bad_l2.ml:2:");
      Alcotest.(check bool) "has rule tag" true (has_sub "[L2]")

let parse_allowlist text =
  match Allowlist.parse ~file:"<test>" text with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let test_allowlist_wildcard () =
  let allowlist = parse_allowlist "L2 bad_l2.ml *  # suppress the whole file\n" in
  let r = Engine.run ~allowlist [ fixtures_root ] in
  let l2 =
    List.filter (fun (d : Diag.t) -> d.rule = Diag.L2) r.Engine.diagnostics
  in
  Alcotest.(check int) "L2 suppressed" 0 (List.length l2);
  Alcotest.(check int) "four suppressions recorded" 4 (List.length r.Engine.suppressed);
  Alcotest.(check bool) "other rules still fire" true (r.Engine.diagnostics <> [])

let test_allowlist_symbol () =
  let allowlist = parse_allowlist "L5 bad_l5.ml shout  # only this value\n" in
  let r = Engine.run ~allowlist [ fixtures_root ] in
  let l5 =
    List.filter (fun (d : Diag.t) -> d.rule = Diag.L5) r.Engine.diagnostics
  in
  Alcotest.(check int) "one L5 left" 1 (List.length l5);
  Alcotest.(check int) "one suppression" 1 (List.length r.Engine.suppressed)

let test_allowlist_reject () =
  match Allowlist.parse ~file:"<test>" "LX foo.ml *\n" with
  | Ok _ -> Alcotest.fail "expected a parse error for rule LX"
  | Error _ -> ()

let test_exit_codes () =
  Alcotest.(check int) "violations exit 1" 1 (Engine.exit_code (Lazy.force report));
  Alcotest.(check int) "clean exit 0" 0 (Engine.exit_code Engine.empty_report)

let test_vocabulary () =
  let yes = [ "distance_km"; "rain_mm_h"; "bearing_deg"; "coding_rate"; "lat" ] in
  let no = [ "value"; "interpolate"; "x" ] in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " carries a unit") true (Rules.carries_unit n))
    yes;
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " carries no unit") false (Rules.carries_unit n))
    no

let test_protected_constants () =
  let protected x = Option.is_some (Rules.protected_constant x) in
  Alcotest.(check bool) "c is protected" true (protected 299792.458);
  Alcotest.(check bool) "earth radius is protected" true (protected 6371.0);
  Alcotest.(check bool) "1.5 is protected" true (protected 1.5);
  Alcotest.(check bool) "other literals pass" false (protected 300000.0);
  Alcotest.(check bool) "units.ml is exempt" true (Rules.is_units_source "lib/util/units.ml")

(* ---------------- effect discipline: L7-L9 ---------------- *)

module Callgraph = Cisp_linter.Callgraph
module Summary = Cisp_linter.Summary
module Effects = Cisp_linter.Effects
module Loader = Cisp_linter.Loader

let contains s sub =
  let ls = String.length s and lu = String.length sub in
  let rec at i =
    i + lu <= ls && (String.equal (String.sub s i lu) sub || at (i + 1))
  in
  at 0

let message ~rule ~file ~line =
  match
    List.find_opt
      (fun (d : Diag.t) -> d.rule = rule && in_file file d && d.line = line)
      (diags ())
  with
  | Some d -> d.Diag.message
  | None -> "<missing>"

let test_l7_positive () =
  (* direct global, cross-module global, captured local *)
  check_hit ~rule:Diag.L7 ~file:"bad_l7.ml" ~line:5;
  check_hit ~rule:Diag.L7 ~file:"bad_l7.ml" ~line:8;
  check_hit ~rule:Diag.L7 ~file:"bad_l7.ml" ~line:12;
  (* the indirect case must name the helper's state and its write
     site: one level of cross-module indirection *)
  let m = message ~rule:Diag.L7 ~file:"bad_l7.ml" ~line:8 in
  Alcotest.(check bool) "names the helper ref" true
    (contains m "Bad_l7_helper.hits");
  Alcotest.(check bool) "points at the write site" true
    (contains m "bad_l7_helper.ml:3");
  let m' = message ~rule:Diag.L7 ~file:"bad_l7.ml" ~line:12 in
  Alcotest.(check bool) "captured local named" true (contains m' "acc")

let test_l7_negative () =
  Alcotest.(check int) "exactly the three seeded hits" 3
    (count ~rule:Diag.L7 ~file:"bad_l7.ml");
  Alcotest.(check int) "pure map closure is silent" 0
    (count ~rule:Diag.L7 ~file:"good.ml")

let test_l8_positive () =
  check_hit ~rule:Diag.L8 ~file:"bad_l8.ml" ~line:2;
  check_hit ~rule:Diag.L8 ~file:"bad_l8.ml" ~line:3;
  Alcotest.(check bool) "names the escaping exception" true
    (contains (message ~rule:Diag.L8 ~file:"bad_l8.ml" ~line:2) "Not_found")

let test_l8_negative () =
  (* [checked] raises Invalid_argument (the sanctioned convention) and
     [caught] handles its Not_found: both silent *)
  Alcotest.(check int) "two L8 hits" 2 (count ~rule:Diag.L8 ~file:"bad_l8.ml");
  (* bad_l2.ml has no interface, so nothing there is public *)
  Alcotest.(check int) "no-mli unit is exempt" 0
    (count ~rule:Diag.L8 ~file:"bad_l2.ml")

let test_l9_positive () =
  List.iter
    (fun line -> check_hit ~rule:Diag.L9 ~file:"bad_l9.ml" ~line)
    [ 2; 3; 4; 5 ]

let test_l9_negative () =
  Alcotest.(check int) "four L9 hits" 4 (count ~rule:Diag.L9 ~file:"bad_l9.ml");
  Alcotest.(check int) "no L9 in good.ml" 0 (count ~rule:Diag.L9 ~file:"good.ml")

let graph_and_sums =
  lazy
    (let units, _errors = Loader.load_roots [ fixtures_root ] in
     let g = Callgraph.build units in
     (g, Summary.compute g))

let node_exn g name =
  match Callgraph.find g name with
  | Some n -> n
  | None -> Alcotest.fail ("missing call-graph node " ^ name)

let calls (a : Callgraph.node) (b : Callgraph.node) =
  List.exists
    (fun (e : Callgraph.edge) ->
      e.Callgraph.callee = Callgraph.Internal b.Callgraph.id)
    a.Callgraph.edges

let test_callgraph_recursive () =
  let g, _ = Lazy.force graph_and_sums in
  (* mutually recursive modules: sibling references resolve *)
  let even = node_exn g "Lint_fixtures.Rec_m.Even.check" in
  let odd = node_exn g "Lint_fixtures.Rec_m.Odd.check" in
  Alcotest.(check bool) "Even.check -> Odd.check" true (calls even odd);
  Alcotest.(check bool) "Odd.check -> Even.check" true (calls odd even);
  (* and a plain let-rec cycle *)
  let ping = node_exn g "Lint_fixtures.Rec_m.ping" in
  let pong = node_exn g "Lint_fixtures.Rec_m.pong" in
  Alcotest.(check bool) "ping -> pong" true (calls ping pong);
  Alcotest.(check bool) "pong -> ping" true (calls pong ping)

let test_fixpoint_convergence () =
  let g, r = Lazy.force graph_and_sums in
  (* the cyclic graph converged (compute returned) and needed more
     than the initial sweep to do it *)
  Alcotest.(check bool) "second sweep required" true (r.Summary.rounds >= 2);
  (* Odd.check's failwith propagates around the module cycle *)
  let even = node_exn g "Lint_fixtures.Rec_m.Even.check" in
  Alcotest.(check bool) "Failure reaches Even.check" true
    (Effects.SM.mem "Failure"
       r.Summary.summaries.(even.Callgraph.id).Effects.raises)

(* ---------------- allocation discipline: L10-L12 ---------------- *)

let test_l10_positive () =
  (* direct violation: the tuple in [pair] boxes both floats *)
  check_hit ~rule:Diag.L10 ~file:"bad_l10.ml" ~line:4;
  (* blame-at-origin: [deep]'s violation lands in the helper unit *)
  check_hit ~rule:Diag.L10 ~file:"bad_l10_helper.ml" ~line:2;
  let m = message ~rule:Diag.L10 ~file:"bad_l10_helper.ml" ~line:2 in
  Alcotest.(check bool) "contract holder named at the origin" true
    (contains m "Bad_l10.deep")

let test_l10_negative () =
  (* [clean] holds its contract and [damped]'s callee is
     [@cisp.alloc_ok]: only the two kinds at [pair]'s line remain *)
  Alcotest.(check int) "two L10 hits in bad_l10.ml" 2
    (count ~rule:Diag.L10 ~file:"bad_l10.ml");
  Alcotest.(check int) "two L10 hits at the helper origin" 2
    (count ~rule:Diag.L10 ~file:"bad_l10_helper.ml");
  Alcotest.(check int) "no L10 in good.ml" 0 (count ~rule:Diag.L10 ~file:"good.ml")

let test_l11_positive () =
  check_hit ~rule:Diag.L11 ~file:"bad_l11.ml" ~line:7;
  check_hit ~rule:Diag.L11 ~file:"bad_l11.ml" ~line:13;
  let m = message ~rule:Diag.L11 ~file:"bad_l11.ml" ~line:7 in
  Alcotest.(check bool) "names the kind and the allocation site" true
    (contains m "closure at" && contains m "bad_l11.ml:8")

let test_l11_negative () =
  (* [clean]'s scalar worker is silent; bad_l7's int workers mutate
     but never allocate, so L7 and L11 partition cleanly *)
  Alcotest.(check int) "two L11 hits" 2 (count ~rule:Diag.L11 ~file:"bad_l11.ml");
  Alcotest.(check int) "no L11 in bad_l7.ml" 0 (count ~rule:Diag.L11 ~file:"bad_l7.ml");
  Alcotest.(check int) "no L11 in good.ml" 0 (count ~rule:Diag.L11 ~file:"good.ml")

let test_l12_positive () =
  List.iter
    (fun line -> check_hit ~rule:Diag.L12 ~file:"bad_l12.ml" ~line)
    [ 5; 8; 11; 14 ]

let test_l12_negative () =
  (* [ok_ints] uses Int.compare: silent *)
  Alcotest.(check int) "four L12 hits" 4 (count ~rule:Diag.L12 ~file:"bad_l12.ml");
  Alcotest.(check int) "no L12 in good.ml" 0 (count ~rule:Diag.L12 ~file:"good.ml")

let test_alloc_summaries () =
  let g, r = Lazy.force graph_and_sums in
  (* interprocedural propagation keeps the origin site: the helper's
     allocation appears in [deep]'s summary with its own file *)
  let deep = node_exn g "Lint_fixtures.Bad_l10.deep" in
  (match
     Effects.SM.find_opt "boxed float"
       r.Summary.summaries.(deep.Callgraph.id).Effects.allocs
   with
  | Some site ->
      Alcotest.(check bool) "witness is the helper's site" true
        (contains site.Effects.file "bad_l10_helper.ml")
  | None -> Alcotest.fail "boxed float missing from deep's summary");
  (* [@cisp.alloc_ok] damping stops the evidence at the cold path *)
  let damped = node_exn g "Lint_fixtures.Bad_l10.damped" in
  Alcotest.(check bool) "alloc_ok damps the callee's evidence" true
    (Effects.SM.is_empty
       r.Summary.summaries.(damped.Callgraph.id).Effects.allocs);
  let clean = node_exn g "Lint_fixtures.Bad_l10.clean" in
  Alcotest.(check bool) "register float math is allocation-free" true
    (Effects.SM.is_empty r.Summary.summaries.(clean.Callgraph.id).Effects.allocs)

let test_alloc_allowlist_and_json () =
  let allowlist =
    parse_allowlist "L10 bad_l10.ml pair  # fixture\nL11 bad_l11.ml *  # fixture\n"
  in
  let r = Engine.run ~allowlist [ fixtures_root ] in
  let left rule file =
    List.length
      (List.filter
         (fun (d : Diag.t) -> d.rule = rule && in_file file d)
         r.Engine.diagnostics)
  in
  Alcotest.(check int) "L10 pair suppressed" 0 (left Diag.L10 "bad_l10.ml");
  Alcotest.(check int) "helper origin not covered by the entry" 2
    (left Diag.L10 "bad_l10_helper.ml");
  Alcotest.(check int) "L11 wildcard suppressed" 0 (left Diag.L11 "bad_l11.ml");
  Alcotest.(check bool) "both entries matched something" true (r.Engine.stale = []);
  match
    List.find_opt (fun (d : Diag.t) -> d.rule = Diag.L12) r.Engine.diagnostics
  with
  | None -> Alcotest.fail "expected an L12 diagnostic"
  | Some d ->
      Alcotest.(check bool) "JSON carries the new rule tag" true
        (contains (Diag.to_json d) {|"rule":"L12"|})

let test_ordering_stable () =
  let strings (r : Engine.report) = List.map Diag.to_string r.Engine.diagnostics in
  let r1 = Engine.run [ fixtures_root ] in
  let r2 = Engine.run [ fixtures_root ] in
  Alcotest.(check (list string)) "two runs byte-identical" (strings r1) (strings r2);
  Alcotest.(check (list string)) "sorted by (file, line, col, rule)"
    (List.map Diag.to_string (List.sort Diag.order r1.Engine.diagnostics))
    (strings r1)

let test_order_total () =
  (* Engine.report deduplicates with [sort_uniq Diag.order]: findings
     that differ only in symbol or witness must all survive it, and
     only exact duplicates collapse. *)
  let at ?witness symbol =
    Diag.make ?witness ~rule:Diag.L14 ~symbol ~message:"may block"
      (Effects.loc_of_site { Effects.file = "a.ml"; line = 3; col = 7 })
  in
  let ds =
    [ at "f"; at "g"; at ~witness:[ "x" ] "f"; at ~witness:[ "x"; "y" ] "f"; at "f" ]
  in
  Alcotest.(check (list string)) "ties broken on symbol, then witness"
    [
      {|{"file":"a.ml","line":3,"col":7,"rule":"L14","symbol":"f","message":"may block"}|};
      {|{"file":"a.ml","line":3,"col":7,"rule":"L14","symbol":"f","message":"may block","witness":["x"]}|};
      {|{"file":"a.ml","line":3,"col":7,"rule":"L14","symbol":"f","message":"may block","witness":["x","y"]}|};
      {|{"file":"a.ml","line":3,"col":7,"rule":"L14","symbol":"g","message":"may block"}|};
    ]
    (List.map Diag.to_json (List.sort_uniq Diag.order ds))

let test_json_format () =
  let d =
    Diag.make ~rule:Diag.L9 ~symbol:"f" ~message:"says \"hi\"\there"
      (Effects.loc_of_site { Effects.file = "a.ml"; line = 3; col = 7 })
  in
  Alcotest.(check string) "escaped single-line object"
    {|{"file":"a.ml","line":3,"col":7,"rule":"L9","symbol":"f","message":"says \"hi\"\there"}|}
    (Diag.to_json d)

let test_allowlist_stale () =
  let allowlist =
    parse_allowlist "L2 bad_l2.ml *  # live\nL5 no_such_file.ml *  # stale\n"
  in
  let r = Engine.run ~allowlist [ fixtures_root ] in
  match r.Engine.stale with
  | [ e ] ->
      Alcotest.(check string) "stale file" "no_such_file.ml" e.Allowlist.file;
      Alcotest.(check int) "stale lineno" 2 e.Allowlist.lineno
  | l -> Alcotest.fail (Printf.sprintf "expected 1 stale entry, got %d" (List.length l))

let test_allowlist_prune () =
  let path = "cisp_lint_prune_test.allowlist" in
  let text =
    "# header comment\nL2 bad_l2.ml *  # live\n\nL5 no_such_file.ml *  # stale\n"
  in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
  let allowlist =
    match Allowlist.load path with Ok t -> t | Error e -> Alcotest.fail e
  in
  let r = Engine.run ~allowlist [ fixtures_root ] in
  (match Allowlist.prune ~path r.Engine.stale with
  | Ok n -> Alcotest.(check int) "one line pruned" 1 n
  | Error e -> Alcotest.fail e);
  let kept = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "live entries and comments survive"
    "# header comment\nL2 bad_l2.ml *  # live\n\n" kept

(* ---------------- concurrency discipline: L13-L15 ---------------- *)

module Effect_rules = Cisp_linter.Effect_rules

let test_l13_positive () =
  (* both directions of the a/b cycle, plus the re-entrant acquisition *)
  List.iter
    (fun line -> check_hit ~rule:Diag.L13 ~file:"bad_l13.ml" ~line)
    [ 11; 15; 20 ];
  Alcotest.(check bool) "self-deadlock named" true
    (contains (message ~rule:Diag.L13 ~file:"bad_l13.ml" ~line:20) "self-deadlock");
  Alcotest.(check bool) "cycle named" true
    (contains (message ~rule:Diag.L13 ~file:"bad_l13.ml" ~line:11) "cycle")

let test_l13_negative () =
  (* [nested_ok]'s one-way nesting is acyclic: no L13 there *)
  Alcotest.(check int) "three L13 hits" 3 (count ~rule:Diag.L13 ~file:"bad_l13.ml");
  Alcotest.(check int) "single-lock unit has no L13" 0
    (count ~rule:Diag.L13 ~file:"bad_l14.ml")

let test_l13_canonical_order () =
  (* a canonical order listing c before a turns [nested_ok]'s acyclic
     a -> c edge into an order contradiction *)
  let units, _errors = Loader.load_roots [ fixtures_root ] in
  let cfg =
    {
      Effect_rules.generic with
      Effect_rules.lock_order =
        [ "Lint_fixtures.Bad_l13.lock_c"; "Lint_fixtures.Bad_l13.lock_a" ];
    }
  in
  let diags = Engine.run_pass units (Engine.Interprocedural cfg) in
  match
    List.filter (fun (d : Diag.t) -> contains d.Diag.message "contradicts") diags
  with
  | [ d ] ->
      Alcotest.(check string) "flagged in nested_ok" "nested_ok" d.Diag.symbol;
      Alcotest.(check bool) "cites the canonical-order doc" true
        (contains d.Diag.message "DESIGN.md")
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected 1 order contradiction, got %d" (List.length l))

let test_l14_positive () =
  (* direct io x2, Domain.join, pool body, transitive *)
  List.iter
    (fun line -> check_hit ~rule:Diag.L14 ~file:"bad_l14.ml" ~line)
    [ 10; 11; 17; 23; 38 ];
  Alcotest.(check bool) "pool-body finding names the combinator" true
    (contains (message ~rule:Diag.L14 ~file:"bad_l14.ml" ~line:23)
       "Pool.parallel_for");
  Alcotest.(check bool) "transitive finding names the callee" true
    (contains (message ~rule:Diag.L14 ~file:"bad_l14.ml" ~line:38) "deep_block")

let test_l14_negative () =
  (* [ok_after_unlock] releases before blocking: exactly the five seeded *)
  Alcotest.(check int) "five L14 hits" 5 (count ~rule:Diag.L14 ~file:"bad_l14.ml");
  (* nested acquisition is itself blocking-under-lock, even when the
     nesting is order-consistent: the three protect pairs + nested_ok *)
  Alcotest.(check int) "four L14 hits in bad_l13.ml" 4
    (count ~rule:Diag.L14 ~file:"bad_l13.ml");
  Alcotest.(check int) "no L14 in good.ml" 0 (count ~rule:Diag.L14 ~file:"good.ml")

let test_l15_positive () =
  List.iter
    (fun line -> check_hit ~rule:Diag.L15 ~file:"bad_l15.ml" ~line)
    [ 10; 15; 20 ];
  Alcotest.(check bool) "suggests the sorted view" true
    (contains (message ~rule:Diag.L15 ~file:"bad_l15.ml" ~line:10) "Cisp_util.Tbl")

let test_l15_negative () =
  (* [ok_ints] folds ints: order-insensitive, silent *)
  Alcotest.(check int) "three L15 hits" 3 (count ~rule:Diag.L15 ~file:"bad_l15.ml");
  Alcotest.(check int) "no L15 in good.ml" 0 (count ~rule:Diag.L15 ~file:"good.ml")

let test_lock_graph () =
  let g, r = Lazy.force graph_and_sums in
  let edges = Effect_rules.lock_graph g r.Summary.summaries in
  let has from to_ =
    List.exists
      (fun (e : Effect_rules.lock_edge) ->
        String.equal e.Effect_rules.le_from from
        && String.equal e.Effect_rules.le_to to_)
      edges
  in
  Alcotest.(check bool) "a -> b" true
    (has "Lint_fixtures.Bad_l13.lock_a" "Lint_fixtures.Bad_l13.lock_b");
  Alcotest.(check bool) "b -> a" true
    (has "Lint_fixtures.Bad_l13.lock_b" "Lint_fixtures.Bad_l13.lock_a");
  Alcotest.(check bool) "a -> c" true
    (has "Lint_fixtures.Bad_l13.lock_a" "Lint_fixtures.Bad_l13.lock_c");
  let classes = Effect_rules.lock_classes g in
  Alcotest.(check bool) "vertex set contains every fixture lock" true
    (List.mem "Lint_fixtures.Bad_l13.lock_c" classes
    && List.mem "Lint_fixtures.Bad_l14.lock" classes);
  Alcotest.(check bool) "vertex set sorted" true
    (List.sort String.compare classes = classes);
  let dot = Effect_rules.lock_graph_dot g r.Summary.summaries in
  Alcotest.(check bool) "dot header" true (contains dot "digraph lock_order");
  Alcotest.(check bool) "dot edge rendered" true
    (contains dot
       "\"Lint_fixtures.Bad_l13.lock_a\" -> \"Lint_fixtures.Bad_l13.lock_b\"")

let test_witness_json () =
  match
    List.find_opt
      (fun (d : Diag.t) ->
        d.rule = Diag.L14 && in_file "bad_l14.ml" d && d.line = 38)
      (diags ())
  with
  | None -> Alcotest.fail "expected the transitive L14 diagnostic"
  | Some d ->
      let j = Diag.to_json d in
      Alcotest.(check bool) "witness array present" true
        (contains j {|"witness":["|});
      Alcotest.(check bool) "chain step carries callee and site" true
        (contains j "Lint_fixtures.Bad_l14.deep_block (")
      ;
      Alcotest.(check bool) "chain step cites the definition line" true
        (contains j "bad_l14.ml:35)")

let test_block_summaries () =
  let g, r = Lazy.force graph_and_sums in
  (* blocking propagates caller-ward: [via] inherits its callee's io *)
  let via = node_exn g "Lint_fixtures.Bad_l14.via" in
  Alcotest.(check bool) "io reaches via's summary" true
    (Effects.SM.mem "io" r.Summary.summaries.(via.Callgraph.id).Effects.blocks);
  (* ...but not across the scheduling boundary: a pool body's blocking
     never leaks into the submitter's own summary *)
  let lp = node_exn g "Lint_fixtures.Bad_l14.lock_in_pool" in
  Alcotest.(check bool) "pool-body blocking stays behind the boundary" true
    (not
       (Effects.SM.exists
          (fun k _ -> contains k "mutex acquisition")
          r.Summary.summaries.(lp.Callgraph.id).Effects.blocks))

(* Every finding on the fixture tree, witnesses included, and the
   fixtures' lock-acquisition graph: a refactor of the linter must
   leave both byte-identical. *)
let test_findings_golden () =
  let b = Buffer.create 16384 in
  List.iter
    (fun d ->
      Buffer.add_string b (Diag.to_json d);
      Buffer.add_char b '\n')
    (diags ());
  Alcotest.(check int) "finding count" 57 (List.length (diags ()));
  Alcotest.(check string) "findings JSON"
    "46a1f300fd92d9d0d1662e005bc41696"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  let g, r = Lazy.force graph_and_sums in
  Alcotest.(check string) "lock graph DOT"
    "62ce40a9af712be31914599f82d678c3"
    (Digest.to_hex
       (Digest.string (Effect_rules.lock_graph_dot g r.Summary.summaries)))

let suites =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "loader decodes fixtures" `Quick test_loader;
        Alcotest.test_case "L1 positive" `Quick test_l1_positive;
        Alcotest.test_case "L1 negative" `Quick test_l1_negative;
        Alcotest.test_case "L2 positive" `Quick test_l2_positive;
        Alcotest.test_case "L2 negative" `Quick test_l2_negative;
        Alcotest.test_case "L3 positive" `Quick test_l3_positive;
        Alcotest.test_case "L3 negative" `Quick test_l3_negative;
        Alcotest.test_case "L4 positive" `Quick test_l4_positive;
        Alcotest.test_case "L4 negative" `Quick test_l4_negative;
        Alcotest.test_case "L5 positive" `Quick test_l5_positive;
        Alcotest.test_case "L5 negative" `Quick test_l5_negative;
        Alcotest.test_case "L6 positive" `Quick test_l6_positive;
        Alcotest.test_case "L6 negative" `Quick test_l6_negative;
        Alcotest.test_case "good fixtures are clean" `Quick test_good_is_clean;
        Alcotest.test_case "symbols tracked" `Quick test_symbols;
        Alcotest.test_case "diagnostic format" `Quick test_diag_format;
      ] );
    ( "lint.allowlist",
      [
        Alcotest.test_case "wildcard entry" `Quick test_allowlist_wildcard;
        Alcotest.test_case "symbol entry" `Quick test_allowlist_symbol;
        Alcotest.test_case "bad entry rejected" `Quick test_allowlist_reject;
        Alcotest.test_case "exit codes" `Quick test_exit_codes;
      ] );
    ( "lint.effects",
      [
        Alcotest.test_case "L7 positive" `Quick test_l7_positive;
        Alcotest.test_case "L7 negative" `Quick test_l7_negative;
        Alcotest.test_case "L8 positive" `Quick test_l8_positive;
        Alcotest.test_case "L8 negative" `Quick test_l8_negative;
        Alcotest.test_case "L9 positive" `Quick test_l9_positive;
        Alcotest.test_case "L9 negative" `Quick test_l9_negative;
        Alcotest.test_case "recursive call graph" `Quick test_callgraph_recursive;
        Alcotest.test_case "fixpoint converges" `Quick test_fixpoint_convergence;
        Alcotest.test_case "stable ordering" `Quick test_ordering_stable;
        Alcotest.test_case "total order" `Quick test_order_total;
        Alcotest.test_case "JSON output" `Quick test_json_format;
        Alcotest.test_case "stale allowlist entries" `Quick test_allowlist_stale;
        Alcotest.test_case "allowlist pruning" `Quick test_allowlist_prune;
      ] );
    ( "lint.alloc",
      [
        Alcotest.test_case "L10 positive" `Quick test_l10_positive;
        Alcotest.test_case "L10 negative" `Quick test_l10_negative;
        Alcotest.test_case "L11 positive" `Quick test_l11_positive;
        Alcotest.test_case "L11 negative" `Quick test_l11_negative;
        Alcotest.test_case "L12 positive" `Quick test_l12_positive;
        Alcotest.test_case "L12 negative" `Quick test_l12_negative;
        Alcotest.test_case "allocation summaries" `Quick test_alloc_summaries;
        Alcotest.test_case "allowlist and JSON for L10-L12" `Quick
          test_alloc_allowlist_and_json;
      ] );
    ( "lint.concurrency",
      [
        Alcotest.test_case "L13 positive" `Quick test_l13_positive;
        Alcotest.test_case "L13 negative" `Quick test_l13_negative;
        Alcotest.test_case "L13 canonical order" `Quick test_l13_canonical_order;
        Alcotest.test_case "L14 positive" `Quick test_l14_positive;
        Alcotest.test_case "L14 negative" `Quick test_l14_negative;
        Alcotest.test_case "L15 positive" `Quick test_l15_positive;
        Alcotest.test_case "L15 negative" `Quick test_l15_negative;
        Alcotest.test_case "lock graph" `Quick test_lock_graph;
        Alcotest.test_case "witness JSON" `Quick test_witness_json;
        Alcotest.test_case "blocking summaries" `Quick test_block_summaries;
        Alcotest.test_case "fixture findings golden" `Quick test_findings_golden;
      ] );
    ( "lint.vocabulary",
      [
        Alcotest.test_case "unit vocabulary" `Quick test_vocabulary;
        Alcotest.test_case "protected constants" `Quick test_protected_constants;
      ] );
  ]
