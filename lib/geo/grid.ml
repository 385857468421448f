(* Cell keys pack the two signed cell indices into one immediate int:
   no tuple allocation per probe, and the cell table hashes ints
   instead of pairs.  23-bit fields hold any index reachable with
   cell_deg >= 0.001 (|ci| <= 90/cell_deg, plus clamped query
   windows). *)
let pack ci cj = ((ci + 0x400000) lsl 23) lor ((cj + 0x400000) land 0x7FFFFF)

(* Each cell is a flat array, probed by packed key: the index is built
   once by [of_list] and only read afterwards. *)
type 'a t = { cell_deg : float; cells : (int, (Coord.t * 'a) array) Hashtbl.t }

(* Column index of coordinate [x] under cell size [cd].  Top-level
   with [cd] as an argument — a capturing local would be one closure
   per query, inside the hop sweeps' per-iteration allocation budget
   (L11). *)
let[@inline] col cd x = int_of_float (Float.floor (x /. cd))

let key_of cd p = pack (col cd (Coord.lat p)) (col cd (Coord.lon p))

let of_list ~cell_deg pairs =
  if cell_deg < 0.001 then invalid_arg "Grid.of_list: cell_deg < 0.001";
  (* Two passes: count each cell's points, then place each point at
     its cell's next free slot from the end, so a cell holds its
     points most recently listed first (reverse list order). *)
  let left = Hashtbl.create 4096 in
  List.iter
    (fun (p, _) ->
      let key = key_of cell_deg p in
      match Hashtbl.find_opt left key with
      | Some n -> incr n
      | None -> Hashtbl.add left key (ref 1))
    pairs;
  let cells = Hashtbl.create (max 16 (Hashtbl.length left)) in
  List.iter
    (fun ((p, _) as point) ->
      let key = key_of cell_deg p in
      match Hashtbl.find_opt left key with
      | None -> () (* every key was counted above *)
      | Some n -> (
        decr n;
        match Hashtbl.find_opt cells key with
        | Some arr -> arr.(!n) <- point
        | None -> Hashtbl.add cells key (Array.make (!n + 1) point)))
    pairs;
  { cell_deg; cells }

(* Degrees of longitude spanned by [radius_km] at latitude [lat]. *)
let lon_span_deg ~radius_km ~lat =
  let km_per_deg =
    Cisp_util.Units.km_per_deg_lat *. Float.max 0.05 (cos (Cisp_util.Units.deg_to_rad lat))
  in
  radius_km /. km_per_deg

(* The query path below is deliberately closure- and allocation-free
   ([@cisp.zero_alloc] on [iter_nearby]): the LOS sweeps call it once
   per tower from pool workers.  Column ranges travel as four scalars
   (an empty second range is [lo > hi]), and each probed cell's array
   is walked by a plain loop.  [Hashtbl.find]-with-[Not_found] rather
   than [find_opt]: the option would allocate per probed cell (L2
   allowlist entry). *)
let scan_cols cells f p radius_km ci cj_lo cj_hi =
  for cj = cj_lo to cj_hi do
    match Hashtbl.find cells (pack ci cj) with
    | exception Not_found -> ()
    | arr ->
      for k = 0 to Array.length arr - 1 do
        let q, v = Array.unsafe_get arr k in
        if Geodesy.distance_km p q <= radius_km then f q v
      done
  done

let scan_ranges t f p radius_km ~ci_lo ~ci_hi ~r1_lo ~r1_hi ~r2_lo ~r2_hi =
  for ci = ci_lo to ci_hi do
    scan_cols t.cells f p radius_km ci r1_lo r1_hi;
    scan_cols t.cells f p radius_km ci r2_lo r2_hi
  done

let[@cisp.zero_alloc] iter_nearby t p ~radius_km f =
  let cd = t.cell_deg in
  let lat_span = radius_km /. Cisp_util.Units.km_per_deg_lat in
  let lon_span = lon_span_deg ~radius_km ~lat:(Coord.lat p) in
  (* Rows cannot wrap; clamp to the populated band so every scanned
     key stays inside the packed-field range. *)
  let ci_min = col cd (-90.0) and ci_max = col cd 90.0 in
  let ci_lo = max ci_min (col cd (Coord.lat p -. lat_span)) in
  let ci_hi = min ci_max (col cd (Coord.lat p +. lat_span)) in
  (* Columns wrap at the antimeridian.  Stored longitudes lie in
     [-180, 180), i.e. columns [cj_min, cj_max]; a window crossing
     +/-180 is scanned as two column ranges, its overflow wrapped by
     360 degrees.  If the wrapped range would meet the main one (the
     window nearly circles the globe) fall back to one full scan so no
     cell is visited twice. *)
  let cj_min = col cd (-180.0) in
  let cj_max = int_of_float (Float.ceil (180.0 /. cd)) - 1 in
  let lon_lo = Coord.lon p -. lon_span and lon_hi = Coord.lon p +. lon_span in
  (* Fully applied at every branch: binding a partially applied
     [scan_ranges] would allocate the very closure this path exists to
     avoid. *)
  if lon_hi -. lon_lo >= 360.0 then
    scan_ranges t f p radius_km ~ci_lo ~ci_hi ~r1_lo:cj_min ~r1_hi:cj_max
      ~r2_lo:0 ~r2_hi:(-1)
  else if lon_lo < -180.0 then begin
    let wrapped_lo = col cd (lon_lo +. 360.0) in
    let main_hi = col cd lon_hi in
    if wrapped_lo <= main_hi then
      scan_ranges t f p radius_km ~ci_lo ~ci_hi ~r1_lo:cj_min ~r1_hi:cj_max
        ~r2_lo:0 ~r2_hi:(-1)
    else
      scan_ranges t f p radius_km ~ci_lo ~ci_hi ~r1_lo:cj_min
        ~r1_hi:(min main_hi cj_max) ~r2_lo:(max wrapped_lo cj_min) ~r2_hi:cj_max
  end
  else if lon_hi >= 180.0 then begin
    let wrapped_hi = col cd (lon_hi -. 360.0) in
    let main_lo = col cd lon_lo in
    if wrapped_hi >= main_lo then
      scan_ranges t f p radius_km ~ci_lo ~ci_hi ~r1_lo:cj_min ~r1_hi:cj_max
        ~r2_lo:0 ~r2_hi:(-1)
    else
      scan_ranges t f p radius_km ~ci_lo ~ci_hi ~r1_lo:(max main_lo cj_min)
        ~r1_hi:cj_max ~r2_lo:cj_min ~r2_hi:(min wrapped_hi cj_max)
  end
  else
    scan_ranges t f p radius_km ~ci_lo ~ci_hi ~r1_lo:(max (col cd lon_lo) cj_min)
      ~r1_hi:(min (col cd lon_hi) cj_max) ~r2_lo:0 ~r2_hi:(-1)
