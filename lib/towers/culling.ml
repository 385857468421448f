module Rng = Cisp_util.Rng

(* Paper §4: FCC structures of at least 100 m, at most 50 towers per
   0.5-degree cell; the subsample's seed is fixed so the registry is. *)
let fcc_min_height_m = 100.0
let cell_deg = 0.5
let max_per_cell = 50
let sample_seed = 11

let apply towers =
  Cisp_util.Telemetry.with_span "towers.culling" (fun () ->
  let eligible =
    List.filter
      (fun (t : Tower.t) ->
        match t.source with
        | Tower.Rental | Tower.City -> true
        | Tower.Fcc -> t.height_m >= fcc_min_height_m)
      towers
  in
  (* Group by 0.5-degree cell and subsample over-dense cells. *)
  let cells : (int * int, Tower.t list ref) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (t : Tower.t) ->
      let ci = int_of_float (Float.floor (Cisp_geo.Coord.lat t.position /. cell_deg)) in
      let cj = int_of_float (Float.floor (Cisp_geo.Coord.lon t.position /. cell_deg)) in
      match Hashtbl.find_opt cells (ci, cj) with
      | Some bucket -> bucket := t :: !bucket
      | None -> Hashtbl.add cells (ci, cj) (ref [ t ]))
    eligible;
  let rng = Rng.create sample_seed in
  (* Cells must be visited in a fixed order: [rng] is consumed as we
     go, so hash-order iteration would tie the surviving towers to the
     table's insertion history. *)
  let out =
    Cisp_util.Tbl.fold_sorted
      ~compare:(fun (ai, aj) (bi, bj) ->
        match Int.compare ai bi with 0 -> Int.compare aj bj | c -> c)
      (fun _ bucket acc ->
        let ts = Array.of_list !bucket in
        if Array.length ts <= max_per_cell then Array.to_list ts @ acc
        else Array.to_list (Rng.sample rng ts max_per_cell) @ acc)
      cells []
  in
  (* Stable order for reproducibility downstream. *)
  let kept = List.sort (fun (a : Tower.t) (b : Tower.t) -> Int.compare a.id b.id) out in
  if Cisp_util.Telemetry.enabled () then begin
    Cisp_util.Telemetry.add "culling.towers_in" (List.length towers);
    Cisp_util.Telemetry.add "culling.towers_kept" (List.length kept)
  end;
  kept)
