(* cisp_lint: typed-AST static analysis for the cISP tree.

   Walks the .cmt/.cmti files dune already produces and enforces the
   repo's unit-safety, partiality and effect rules (L1-L15, see
   lib/lint).  L1-L6 are per-expression; L7-L15 consume the
   interprocedural call graph and effect summaries.  Normally driven
   by `dune build @lint`, which runs it from the build root after
   everything is compiled. *)

module Diag = Cisp_linter.Diag
module Allowlist = Cisp_linter.Allowlist
module Engine = Cisp_linter.Engine

let usage =
  "cisp_lint [options] [ROOT...]\n\n\
   With no ROOT arguments, lints the repo under the current directory\n\
   using the checked-in policy (lib/ strictly; bin/, bench/, examples/\n\
   for unit-safety only; pool closures, public raises and pipeline\n\
   determinism interprocedurally).  With ROOT arguments, applies\n\
   --rules to all .cmt/.cmti files found under the given directories.\n\n\
   Options:"

let () =
  let allowlist_path = ref "" in
  let rules_csv = ref "L1,L2,L3,L4,L5,L6,L7,L8,L9,L10,L11,L12,L13,L14,L15" in
  let lock_graph_path = ref "" in
  let verbose = ref false in
  let list_rules = ref false in
  let json = ref false in
  let check_stale = ref false in
  let prune_stale = ref false in
  let roots = ref [] in
  let spec =
    [
      ("--allowlist", Arg.Set_string allowlist_path, "FILE suppression list (RULE FILE SYMBOL per line)");
      ("--rules", Arg.Set_string rules_csv, "CSV rules to apply in explicit-ROOT mode (default: all)");
      ("--verbose", Arg.Set verbose, " also report suppressed diagnostics");
      ("--json", Arg.Set json, " print diagnostics as JSON Lines (one object per finding)");
      ("--lock-graph", Arg.Set_string lock_graph_path, "FILE write the derived lock-acquisition graph as Graphviz DOT");
      ("--check-stale", Arg.Set check_stale, " fail when allowlist entries match no diagnostic");
      ("--prune-stale", Arg.Set prune_stale, " rewrite the allowlist dropping stale entries");
      ("--list-rules", Arg.Set list_rules, " print the rule catalogue and exit");
    ]
  in
  Arg.parse spec (fun r -> roots := r :: !roots) usage;
  if !list_rules then begin
    List.iter
      (fun r -> Printf.printf "%s  %s\n" (Diag.rule_id r) (Diag.rule_doc r))
      Diag.all_rules;
    exit 0
  end;
  let allowlist =
    if String.equal !allowlist_path "" then Allowlist.empty
    else
      match Allowlist.load !allowlist_path with
      | Ok t -> t
      | Error msg ->
          Printf.eprintf "cisp_lint: bad allowlist: %s\n" msg;
          exit 2
  in
  (* validated up front so a typo'd --rules errors in repo mode too,
     where the checked-in policy overrides the rule selection *)
  let rules =
    String.split_on_char ',' !rules_csv
    |> List.filter_map (fun s ->
           if String.equal (String.trim s) "" then None
           else
             match Diag.rule_of_string s with
             | Some r -> Some r
             | None ->
                 Printf.eprintf "cisp_lint: unknown rule %S\n" s;
                 exit 2)
  in
  let lock_dot =
    if String.equal !lock_graph_path "" then None else Some !lock_graph_path
  in
  let report =
    match List.rev !roots with
    | [] ->
        if not (Sys.file_exists "lib") then begin
          Printf.eprintf
            "cisp_lint: no ROOT given and no lib/ here; run from the build root or pass directories\n";
          exit 2
        end;
        Engine.run_repo ~allowlist ?lock_dot ~root:"." ()
    | roots -> Engine.run ~allowlist ?lock_dot ~rules roots
  in
  List.iter (fun e -> Printf.eprintf "cisp_lint: warning: %s\n" e) report.Engine.errors;
  let emit = if !json then fun d -> print_endline (Diag.to_json d)
             else fun d -> print_endline (Diag.to_string d)
  in
  List.iter emit report.Engine.diagnostics;
  if !verbose && not !json then
    List.iter
      (fun d -> Printf.printf "suppressed: %s\n" (Diag.to_string d))
      report.Engine.suppressed;
  let stale = report.Engine.stale in
  if (!check_stale || !prune_stale) && stale <> [] then begin
    List.iter
      (fun (e : Allowlist.entry) ->
        Printf.eprintf
          "cisp_lint: stale allowlist entry (%s:%d matches nothing): %s\n"
          !allowlist_path e.Allowlist.lineno (Allowlist.to_string e))
      stale;
    if !prune_stale then
      match Allowlist.prune ~path:!allowlist_path stale with
      | Ok n -> Printf.eprintf "cisp_lint: pruned %d stale entr%s from %s\n" n (if n = 1 then "y" else "ies") !allowlist_path
      | Error msg ->
          Printf.eprintf "cisp_lint: could not prune: %s\n" msg;
          exit 2
  end;
  if not !json then
    Printf.printf "cisp_lint: %d unit(s) checked, %d violation(s), %d suppressed\n"
      report.Engine.units_checked
      (List.length report.Engine.diagnostics)
      (List.length report.Engine.suppressed);
  let code = Engine.exit_code report in
  (* stale entries fail a --check-stale run (lint debt), but a prune
     just fixed them *)
  let code =
    if code = 0 && !check_stale && (not !prune_stale) && stale <> [] then 1
    else code
  in
  exit code
