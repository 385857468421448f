(* The [lint.hotpaths] registry: canonical names held to the
   zero-alloc contract without touching their source — the escape
   hatch for entry points whose definition site should stay free of
   analyzer vocabulary (third-party-shaped code, generated code), or
   for pinning a contract from review rather than from the kernel
   author.

   Format, one entry per line, mirroring [lint.allowlist]:

     Cisp_geo.Geodesy.distance_km   # pure float math, LOS inner loop

   [#] starts a comment, blank lines are skipped.  A canonical name is
   the analyzer's spelling: wrapped-library mangling expanded
   ([Cisp_rf.Los.check_cached], not [Cisp_rf__Los.check_cached]).
   Names that match no node are ignored by the rule — the registry may
   be written before the code it contracts — but [names] preserves
   them so a driver can warn if it wants to. *)

type entry = { name : string; line : int; reason : string }

let parse_line ~line s =
  let code, comment =
    match String.index_opt s '#' with
    | Some i ->
        ( String.sub s 0 i,
          String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> (s, "")
  in
  let code = String.trim code in
  if String.equal code "" then Ok None
  else if String.contains code ' ' || String.contains code '\t' then
    Error
      (Printf.sprintf "lint.hotpaths:%d: one canonical name per line (got %S)"
         line code)
  else Ok (Some { name = code; line; reason = comment })

let parse_string text =
  let lines = String.split_on_char '\n' text in
  let entries, errs, _ =
    List.fold_left
      (fun (acc, errs, n) l ->
        match parse_line ~line:n l with
        | Ok None -> (acc, errs, n + 1)
        | Ok (Some e) -> (e :: acc, errs, n + 1)
        | Error m -> (acc, m :: errs, n + 1))
      ([], [], 1) lines
  in
  match errs with
  | [] -> Ok (List.rev entries)
  | e :: _ -> Error e

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_string text
  | exception Sys_error msg -> Error msg

let names entries = List.map (fun e -> e.name) entries
