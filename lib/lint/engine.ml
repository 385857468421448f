type report = {
  diagnostics : Diag.t list;
  suppressed : Diag.t list;
  stale : Allowlist.entry list;
  errors : string list;
  units_checked : int;
}

let empty_report =
  { diagnostics = []; suppressed = []; stale = []; errors = []; units_checked = 0 }

(* ---------------- pass manager ---------------- *)

(* A lint run is a list of passes over one load of the tree:
   per-expression rules confined to a unit at a time (L1-L6), and the
   interprocedural pass (L7-L15) that needs the whole call graph at
   once.  Each expression pass carries its own unit filter so the
   repo policy can hold different parts of the tree to different
   rules; the interprocedural config carries its policy inside. *)
type pass =
  | Expr of { rules : Diag.rule list; select : Loader.unit_ -> bool }
  | Interprocedural of Effect_rules.config

let check_units ~rules units =
  List.concat_map
    (fun (u : Loader.unit_) ->
      match u.kind with
      | Loader.Impl s -> Rules.check_impl ~rules ~source:u.source s
      | Loader.Intf s -> Rules.check_intf ~rules ~source:u.source s)
    units

let run_pass ?on_graph units = function
  | Expr { rules; select } -> check_units ~rules (List.filter select units)
  | Interprocedural cfg ->
      let graph = Callgraph.build units in
      let summaries = Summary.compute graph in
      (match on_graph with
      | Some f -> f graph summaries.Summary.summaries
      | None -> ());
      Effect_rules.check cfg graph summaries

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

(* Diagnostics are sorted by (file, line, col, rule) and deduplicated
   before the allowlist partitions them, so output is byte-stable no
   matter in which order the [.cmt] files were discovered or the
   passes emitted. *)
let report ~allowlist ?lock_dot (units, errors) passes =
  let late_errors = ref [] in
  let on_graph = lock_dot_sink lock_dot late_errors in
  let diags =
    List.sort_uniq Diag.order (List.concat_map (run_pass ?on_graph units) passes)
  in
  let diagnostics, suppressed = Allowlist.filter allowlist diags in
  {
    diagnostics;
    suppressed;
    stale = Allowlist.stale allowlist diags;
    errors = errors @ List.rev !late_errors;
    units_checked = List.length units;
  }

let run ?(allowlist = Allowlist.empty) ?lock_dot roots =
  report ~allowlist ?lock_dot (Loader.load_roots roots)
    [
      Expr
        {
          rules = [ Diag.L1; Diag.L2; Diag.L3; Diag.L4; Diag.L5; Diag.L6 ];
          select = (fun _ -> true);
        };
      Interprocedural Effect_rules.generic;
    ]

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

(* L9/L12/L15 reachability is seeded at the design pipeline:
   everything the end-to-end topology/capacity/weather run can call
   must draw its randomness from the seeded [Cisp_util.Rng], compare
   monomorphically and fold floats in a fixed order. *)
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
    (* hold library code to the conventions: executables may catch
       and report however they like, and a bench harness sorting
       results with polymorphic compare is fine *)
    Effect_rules.in_scope = in_lib;
    root =
      (fun (n : Callgraph.node) ->
        List.exists
          (fun p -> String.starts_with ~prefix:p n.Callgraph.name)
          pipeline_prefixes);
    lock_order = canonical_lock_order;
  }

let run_repo ?(allowlist = Allowlist.empty) ?lock_dot ~root () =
  let ( / ) = Filename.concat in
  let existing dirs = List.filter Sys.file_exists dirs in
  report ~allowlist ?lock_dot
    (Loader.load_roots
       (existing [ root / "lib"; root / "bin"; root / "bench"; root / "examples" ]))
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

let exit_code report =
  if report.diagnostics <> [] then 1
  else if report.errors <> [] then 2
  else 0
