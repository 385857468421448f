(* cISP benchmark harness: regenerates every table and figure of the
   paper's evaluation.  Usage:

     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- --quick      # trimmed sweeps
     dune exec bench/main.exe -- fig5 fig7    # selected experiments
     dune exec bench/main.exe -- --jobs 4     # domain-pool width *)

let experiments : (string * (Ctx.t -> unit)) list =
  [
    ("sec2", Sec2.run);
    ("fig2", Fig2.run);
    ("fig3", Fig3.run);
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("sec8", Sec8.run);
    ("ablation", Ablation.run);
    ("alt", Alt.run);
  ]

(* Consume "--jobs N" (pool width), "--trace FILE" and "--metrics"
   (telemetry sinks), returning the remaining args. *)
let rec extract_options = function
  | [] -> []
  | "--jobs" :: n :: rest ->
    (match int_of_string_opt n with
    | Some k when k >= 1 -> Cisp_util.Pool.set_default_jobs k
    | Some _ | None -> Printf.eprintf "ignoring invalid --jobs %S\n" n);
    extract_options rest
  | "--trace" :: file :: rest ->
    Cisp_util.Telemetry.enable_trace file;
    extract_options rest
  | "--metrics" :: rest ->
    Cisp_util.Telemetry.enable_metrics ();
    extract_options rest
  | a :: rest -> a :: extract_options rest

let () =
  Cisp_util.Telemetry.init_from_env ();
  let args = Array.to_list Sys.argv |> List.tl |> extract_options in
  let quick = List.mem "--quick" args in
  let selected = List.filter (fun a -> a <> "--quick") args in
  let ctx = Ctx.create ~quick in
  let to_run =
    if selected = [] then experiments
    else
      List.filter (fun (name, _) -> List.mem name selected) experiments
  in
  if to_run = [] then begin
    Printf.eprintf "unknown experiment(s); available: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  Printf.printf "cISP evaluation harness%s — %d experiment group(s)\n%!"
    (if quick then " (quick mode)" else "")
    (List.length to_run);
  List.iter
    (fun (name, f) ->
      let (), secs = Ctx.time (fun () -> f ctx) in
      Printf.printf "[%s done in %.1fs]\n%!" name secs)
    to_run;
  Printf.printf "\ntotal: %.1fs\n%!" (Unix.gettimeofday () -. t0);
  Cisp_util.Telemetry.finish ~ppf:Format.std_formatter ()
