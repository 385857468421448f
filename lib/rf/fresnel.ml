let default_k = 1.3
let default_f_ghz = 11.0

let earth_bulge_m ?(k = default_k) ~d1_km ~d2_km () =
  let r = Cisp_util.Units.earth_radius_km in
  (* d1*d2 / (2 k R) in km, converted to metres. *)
  d1_km *. d2_km /. (2.0 *. k *. r) *. 1000.0

let fresnel_radius_m ?(f_ghz = default_f_ghz) ~d1_km ~d2_km () =
  let d = d1_km +. d2_km in
  if d <= 0.0 then 0.0
  else begin
    let lambda_m = 299.792458 /. (f_ghz *. 1000.0) in
    sqrt (lambda_m *. (d1_km *. 1000.0) *. (d2_km *. 1000.0) /. (d *. 1000.0))
  end

let midpoint_bulge_m ?(k = default_k) ~d_km () =
  earth_bulge_m ~k ~d1_km:(d_km /. 2.0) ~d2_km:(d_km /. 2.0) ()

let midpoint_fresnel_m ?(f_ghz = default_f_ghz) ~d_km () =
  fresnel_radius_m ~f_ghz ~d1_km:(d_km /. 2.0) ~d2_km:(d_km /. 2.0) ()

let required_clearance_m ?(k = default_k) ?(f_ghz = default_f_ghz) ~d1_km ~d2_km () =
  earth_bulge_m ~k ~d1_km ~d2_km () +. fresnel_radius_m ~f_ghz ~d1_km ~d2_km ()

(* With d1 = t·D and d2 = (1−t)·D, both clearance terms factor through
   u = t(1−t): bulge = (D² 1000 / 2kR)·u and the Fresnel radius =
   sqrt(lambda·1000·D)·sqrt(u).  Hoisting the pair-constant factors
   out lets a profile walk price each sample with one multiply-add and
   one sqrt.  The coefficients land in [out.(0)]/[out.(1)] instead of a
   tuple of boxed floats, and every label is required so no call site
   pays the [Some]-wrapping of optional arguments.  [@inline] so the
   float arguments stay in registers at the (non-flambda) call
   boundary. *)
let[@inline] [@cisp.zero_alloc] pair_coeffs_into ~k ~f_ghz ~d_km ~out =
  Float.Array.set out 0
    (d_km *. d_km *. 1000.0 /. (2.0 *. k *. Cisp_util.Units.earth_radius_km));
  let lambda_m = Cisp_util.Units.c_vacuum_km_s /. (f_ghz *. 1e6) in
  Float.Array.set out 1
    (if d_km <= 0.0 then 0.0 else sqrt (lambda_m *. 1000.0 *. d_km))
