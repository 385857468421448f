type polarization = Horizontal | Vertical

(* ITU-R P.838-3 regression coefficients at anchor frequencies (GHz).
   (k_H, alpha_H, k_V, alpha_V). *)
let table =
  [|
    (4.0, 0.0001071, 1.6009, 0.0002461, 1.2476);
    (5.0, 0.0002162, 1.6969, 0.0002428, 1.5317);
    (6.0, 0.0007056, 1.5900, 0.0004878, 1.5728);
    (7.0, 0.001915, 1.4810, 0.001425, 1.4745);
    (8.0, 0.004115, 1.3905, 0.003450, 1.3797);
    (10.0, 0.01217, 1.2571, 0.01129, 1.2156);
    (12.0, 0.02386, 1.1825, 0.02455, 1.1216);
    (15.0, 0.04481, 1.1233, 0.05008, 1.0440);
    (18.0, 0.07078, 1.0818, 0.07708, 1.0025);
    (20.0, 0.09164, 1.0568, 0.09611, 0.9847);
  |]

(* Scalar anchor accessors and a top-level bracket search:
   [specific_attenuation_db_per_km] runs per hop per weather interval
   inside pool workers, where a (k, alpha) tuple or a capturing
   [rec find] would allocate on every call (L11). *)
let[@inline] anchor_f i =
  let f, _, _, _, _ = table.(i) in
  f

let[@inline] anchor_k pol i =
  match pol with
  | Horizontal ->
    let _, k, _, _, _ = table.(i) in
    k
  | Vertical ->
    let _, _, _, k, _ = table.(i) in
    k

let[@inline] anchor_a pol i =
  match pol with
  | Horizontal ->
    let _, _, a, _, _ = table.(i) in
    a
  | Vertical ->
    let _, _, _, _, a = table.(i) in
    a

let rec bracket f_ghz i = if f_ghz <= anchor_f (i + 1) then i else bracket f_ghz (i + 1)

(* Interpolate between bracketing anchors [i] and [i + 1]: k in
   log-log, alpha linearly in log frequency (P.838 recommendation). *)
let[@inline] interp_k ~f_ghz pol i =
  let f1 = anchor_f i and f2 = anchor_f (i + 1) in
  let w = (log f_ghz -. log f1) /. (log f2 -. log f1) in
  let k1 = anchor_k pol i and k2 = anchor_k pol (i + 1) in
  exp (log k1 +. (w *. (log k2 -. log k1)))

let[@inline] interp_a ~f_ghz pol i =
  let f1 = anchor_f i and f2 = anchor_f (i + 1) in
  let w = (log f_ghz -. log f1) /. (log f2 -. log f1) in
  let a1 = anchor_a pol i and a2 = anchor_a pol (i + 1) in
  a1 +. (w *. (a2 -. a1))

let[@cisp.zero_alloc] specific_attenuation_db_per_km ~f_ghz pol ~rain_mm_h =
  if rain_mm_h <= 0.0 then 0.0
  else begin
    let n = Array.length table in
    if f_ghz <= anchor_f 0 then anchor_k pol 0 *. (rain_mm_h ** anchor_a pol 0)
    else if f_ghz >= anchor_f (n - 1) then
      anchor_k pol (n - 1) *. (rain_mm_h ** anchor_a pol (n - 1))
    else begin
      let i = bracket f_ghz 0 in
      interp_k ~f_ghz pol i *. (rain_mm_h ** interp_a ~f_ghz pol i)
    end
  end

let effective_path_km ~d_km ~rain_mm_h =
  let r = Float.min rain_mm_h 100.0 in
  let d0 = 35.0 *. exp (-0.015 *. r) in
  d_km /. (1.0 +. (d_km /. d0))

let path_attenuation_db ~f_ghz pol ~rain_mm_h ~d_km =
  specific_attenuation_db_per_km ~f_ghz pol ~rain_mm_h
  *. effective_path_km ~d_km ~rain_mm_h
