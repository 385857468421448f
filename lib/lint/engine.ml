type report = {
  diagnostics : Diag.t list;
  suppressed : Diag.t list;
  stale : Allowlist.entry list;
  errors : string list;
  units_checked : int;
}

let empty_report =
  { diagnostics = []; suppressed = []; stale = []; errors = []; units_checked = 0 }

let merge a b =
  {
    diagnostics = List.sort_uniq Diag.order (a.diagnostics @ b.diagnostics);
    suppressed = List.sort_uniq Diag.order (a.suppressed @ b.suppressed);
    stale = a.stale @ b.stale;
    errors = a.errors @ b.errors;
    units_checked = a.units_checked + b.units_checked;
  }

(* ---------------- pass manager ---------------- *)

(* A lint run is a list of passes over one load of the tree:
   per-expression rules confined to a unit at a time (L1-L6), and the
   interprocedural pass (L7-L9) that needs the whole call graph at
   once.  Each expression pass carries its own unit filter so the
   repo policy can hold different parts of the tree to different
   rules; the interprocedural config carries its policy inside. *)
type pass =
  | Expr of { rules : Diag.rule list; select : Loader.unit_ -> bool }
  | Interprocedural of Effect_rules.config

let is_ipa_rule = function
  | Diag.L7 | Diag.L8 | Diag.L9 | Diag.L10 | Diag.L11 | Diag.L12 | Diag.L13
  | Diag.L14 | Diag.L15 ->
      true
  | _ -> false

let check_units ~rules units =
  List.concat_map
    (fun (u : Loader.unit_) ->
      match u.kind with
      | Loader.Impl s -> Rules.check_impl ~rules ~source:u.source s
      | Loader.Intf s -> Rules.check_intf ~rules ~source:u.source s)
    units

let run_pass ?on_graph units = function
  | Expr { rules = []; _ } -> []
  | Expr { rules; select } -> check_units ~rules (List.filter select units)
  | Interprocedural cfg
    when cfg.Effect_rules.l7 || cfg.Effect_rules.l8 || cfg.Effect_rules.l9
         || cfg.Effect_rules.l10 || cfg.Effect_rules.l11
         || cfg.Effect_rules.l12 || cfg.Effect_rules.l13
         || cfg.Effect_rules.l14 || cfg.Effect_rules.l15 ->
      let graph = Callgraph.build units in
      let summaries = Summary.compute graph in
      (match on_graph with
      | Some f -> f graph summaries.Summary.summaries
      | None -> ());
      Effect_rules.check cfg graph summaries
  | Interprocedural _ -> []

(* Diagnostics are sorted by (file, line, col, rule) and deduplicated
   before the allowlist partitions them, so output is byte-stable no
   matter in which order the [.cmt] files were discovered or the
   passes emitted. *)
let finalize ~allowlist diags =
  let diags = List.sort_uniq Diag.order diags in
  let kept, suppressed = Allowlist.filter allowlist diags in
  let stale = Allowlist.stale allowlist diags in
  (kept, suppressed, stale)

let run_passes ?on_graph ~allowlist units passes =
  let diagnostics, suppressed, stale =
    finalize ~allowlist (List.concat_map (run_pass ?on_graph units) passes)
  in
  (diagnostics, suppressed, stale)

(* [--lock-graph FILE]: dump the derived acquisition graph when the
   interprocedural pass runs; a write failure is a report error, not a
   crash. *)
let lock_dot_sink lock_dot errors =
  match lock_dot with
  | None -> None
  | Some path ->
      Some
        (fun graph sums ->
          try
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                output_string oc (Effect_rules.lock_graph_dot graph sums))
          with Sys_error msg ->
            errors := Printf.sprintf "lock-graph: %s" msg :: !errors)

let run ?(allowlist = Allowlist.empty) ?lock_dot ~rules roots =
  let units, errors = Loader.load_roots roots in
  let expr_rules = List.filter (fun r -> not (is_ipa_rule r)) rules in
  let on r = List.mem r rules in
  let cfg =
    {
      Effect_rules.generic with
      Effect_rules.l7 = on Diag.L7;
      l8 = on Diag.L8;
      l9 = on Diag.L9;
      l10 = on Diag.L10;
      l11 = on Diag.L11;
      l12 = on Diag.L12;
      l13 = on Diag.L13;
      l14 = on Diag.L14;
      l15 = on Diag.L15;
    }
  in
  let passes =
    [
      Expr { rules = expr_rules; select = (fun _ -> true) };
      Interprocedural cfg;
    ]
  in
  let late_errors = ref [] in
  let diagnostics, suppressed, stale =
    run_passes
      ?on_graph:(lock_dot_sink lock_dot late_errors)
      ~allowlist units passes
  in
  {
    diagnostics;
    suppressed;
    stale;
    errors = errors @ List.rev !late_errors;
    units_checked = List.length units;
  }

(* ---------------- repo policy ---------------- *)

let lib_rules = [ Diag.L1; Diag.L2; Diag.L3; Diag.L5; Diag.L6 ]
let exe_rules = [ Diag.L1; Diag.L3 ]

(* match the directory anywhere in the path so it works from any
   build root *)
let in_dir d source =
  let ld = String.length d and ls = String.length source in
  let rec at i =
    i + ld <= ls && (String.equal (String.sub source i ld) d || at (i + 1))
  in
  at 0

let unit_labelled_dirs =
  [ "lib/geo/"; "lib/rf/"; "lib/terrain/"; "lib/fiber/"; "lib/design/" ]

let in_unit_labelled_dir source = List.exists (fun d -> in_dir d source) unit_labelled_dirs
let in_lib source = in_dir "lib/" source

(* L9 reachability is seeded at the design pipeline: everything the
   end-to-end topology/capacity/weather run can call must draw its
   randomness from the seeded [Cisp_util.Rng]. *)
let pipeline_prefixes =
  [
    "Cisp.";
    "Cisp_design.";
    "Cisp_towers.";
    "Cisp_graph.";
    "Cisp_weather.";
    "Cisp_fiber.";
  ]

(* The repo's canonical lock order, outermost first (DESIGN.md §7e):
   the pool registry lock wraps pool lifecycle (shutdown joins workers
   under it), a pool's own mutex is next, and the telemetry mutex is
   innermost — it guards cold read-outs and must never be held across
   anything else. *)
let canonical_lock_order =
  [
    "Cisp_util.Pool.default_lock";
    "Cisp_util.Pool.t.mutex";
    "Cisp_util.Telemetry.state.mutex";
  ]

let repo_ipa_config =
  {
    Effect_rules.l7 = true;
    l8 = true;
    l9 = true;
    l10 = true;
    l11 = true;
    l12 = true;
    l13 = true;
    l14 = true;
    l15 = true;
    (* hold library code to the conventions; executables may catch and
       report however they like *)
    l8_unit_ok = in_lib;
    l9_root =
      (fun (n : Callgraph.node) ->
        List.exists
          (fun p -> String.starts_with ~prefix:p n.Callgraph.name)
          pipeline_prefixes);
    l9_site_ok = in_lib;
    l9_exempt = Effect_rules.default_l9_exempt;
    (* L12, like L9, polices library sources only: a bench harness
       sorting results with polymorphic compare is fine *)
    l12_site_ok = in_lib;
    l13_order = canonical_lock_order;
    (* L15, same scoping as L12 *)
    l15_site_ok = in_lib;
    l15_exempt = Effect_rules.default_l15_exempt;
  }

let run_repo ?(allowlist = Allowlist.empty) ?lock_dot ~root () =
  let ( / ) = Filename.concat in
  let existing dirs = List.filter Sys.file_exists dirs in
  let units, errors =
    Loader.load_roots
      (existing [ root / "lib"; root / "bin"; root / "bench"; root / "examples" ])
  in
  let passes =
    [
      Expr { rules = lib_rules; select = (fun u -> in_lib u.Loader.source) };
      Expr
        {
          rules = [ Diag.L4 ];
          select = (fun u -> in_unit_labelled_dir u.Loader.source);
        };
      Expr
        { rules = exe_rules; select = (fun u -> not (in_lib u.Loader.source)) };
      (* the interprocedural pass sees the whole tree at once:
         executables feed closures to the same pool as the library *)
      Interprocedural repo_ipa_config;
    ]
  in
  let late_errors = ref [] in
  let diagnostics, suppressed, stale =
    run_passes
      ?on_graph:(lock_dot_sink lock_dot late_errors)
      ~allowlist units passes
  in
  {
    diagnostics;
    suppressed;
    stale;
    errors = errors @ List.rev !late_errors;
    units_checked = List.length units;
  }

let exit_code report =
  if report.diagnostics <> [] then 1
  else if report.errors <> [] then 2
  else 0
