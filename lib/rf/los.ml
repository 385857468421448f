module Coord = Cisp_geo.Coord
module Geodesy = Cisp_geo.Geodesy
module Dem_cache = Cisp_terrain.Dem_cache
module Units = Cisp_util.Units

type params = { max_range_km : float; min_range_km : float }

let default_params = { max_range_km = 100.0; min_range_km = 1.0 }

(* Paper §3.1: carrier frequency, effective Earth radius factor, and
   the profile sampling step. *)
let f_ghz = 11.0
let k_factor = 1.3
let step_km = 1.0

type endpoint = { position : Coord.t; ground_m : float; antenna_m : float }

(* Per-domain profile buffers: sample positions as scalar lat/lon, the
   sampled surface heights, plus one small fixed floatarray of the
   per-pair constants ([pair], see the p_* slots).  Keeping every
   per-pair float in unboxed domain-local storage (instead of function
   arguments or captured locals) is what lets the whole walk below run
   closure-free and allocation-free: floats handed across a
   non-flambda call boundary are boxed, floats read out of a
   floatarray stay in registers.  Domain-private (a [Domain.DLS] key),
   and only ever an input to the computation — contents are
   overwritten for the sample range before each read — so reuse cannot
   leak state between pairs or domains. *)
type scratch = {
  mutable lats : Float.Array.t;
  mutable lons : Float.Array.t;
  mutable surf : Float.Array.t;
  pair : Float.Array.t;
}

(* Slots in [scratch.pair].  0/1 are written by
   {!Fresnel.pair_coeffs_into}; 5..14 hoist the pair-constant slerp
   trigonometry out of the fill loop; 15/16 carry the degenerate
   (near-zero angular distance) endpoint. *)
let p_bulge = 0
let p_fres = 1
let p_fn = 2
let p_ha = 3
let p_dh = 4
let p_d = 5
let p_sind = 6
let p_cp1 = 7
let p_sp1 = 8
let p_cl1 = 9
let p_sl1 = 10
let p_cp2 = 11
let p_sp2 = 12
let p_cl2 = 13
let p_sl2 = 14
let p_lat1 = 15
let p_lon1 = 16

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        lats = Float.Array.create 256;
        lons = Float.Array.create 256;
        surf = Float.Array.create 256;
        pair = Float.Array.create 17;
      })

let[@cisp.alloc_ok "amortized: grow-once domain-local sample buffers"] ensure sc n =
  if Float.Array.length sc.lats < n then begin
    let cap = max n (2 * Float.Array.length sc.lats) in
    sc.lats <- Float.Array.create cap;
    sc.lons <- Float.Array.create cap;
    sc.surf <- Float.Array.create cap
  end

(* Fill [lats]/[lons] for sample indices [lo..hi] of the prepared
   pair's walk: the great-circle slerp of [Geodesy.interpolate], with
   the pair-constant trigonometry read back out of [sc.pair] (hoisted
   there once per pair by [begin_profile]) and the per-sample [Coord.t]
   flattened into the two scalar buffers.  The per-sample expressions
   keep the exact operation order of [Geodesy.interpolate], so the
   positions are bit-identical to interpolating the endpoints at
   [t = i / n]. *)
let[@cisp.zero_alloc] fill_positions sc ~lo ~hi =
  let lats = sc.lats and lons = sc.lons and pair = sc.pair in
  let d = Float.Array.get pair p_d in
  if d < 1e-12 then begin
    let lat1 = Float.Array.get pair p_lat1 and lon1 = Float.Array.get pair p_lon1 in
    for i = lo to hi do
      Float.Array.set lats i lat1;
      Float.Array.set lons i lon1
    done
  end
  else begin
    let cp1 = Float.Array.get pair p_cp1
    and sp1 = Float.Array.get pair p_sp1
    and cl1 = Float.Array.get pair p_cl1
    and sl1 = Float.Array.get pair p_sl1 in
    let cp2 = Float.Array.get pair p_cp2
    and sp2 = Float.Array.get pair p_sp2
    and cl2 = Float.Array.get pair p_cl2
    and sl2 = Float.Array.get pair p_sl2 in
    let sind = Float.Array.get pair p_sind in
    let fn = Float.Array.get pair p_fn in
    for i = lo to hi do
      let t = float_of_int i /. fn in
      let sa = sin ((1.0 -. t) *. d) /. sind in
      let sb = sin (t *. d) /. sind in
      let x = (sa *. cp1 *. cl1) +. (sb *. cp2 *. cl2) in
      let y = (sa *. cp1 *. sl1) +. (sb *. cp2 *. sl2) in
      let z = (sa *. sp1) +. (sb *. sp2) in
      Float.Array.set lats i (atan2 z (sqrt ((x *. x) +. (y *. y))) *. 180.0 /. Float.pi);
      Float.Array.set lons i (Coord.normalize_lon (atan2 y x *. 180.0 /. Float.pi))
    done
  end

(* True iff one of samples [lo..hi] of a filled, sampled chunk is
   blocked, priced against the hoisted clearance coefficients
   ({!Fresnel.pair_coeffs_into}): with [u = t (1 - t)] each sample
   costs one multiply-add and one sqrt.  Stops at the first blocked
   sample.  A top-level recursion reading the pair constants back out
   of [sc.pair], so no float crosses a call boundary boxed. *)
let[@cisp.zero_alloc] rec walk_chunk sc ~lo ~hi =
  lo <= hi
  &&
  let pair = sc.pair in
  let bulge_c = Float.Array.get pair p_bulge
  and fres_c = Float.Array.get pair p_fres in
  let ha = Float.Array.get pair p_ha
  and dh = Float.Array.get pair p_dh in
  let t = float_of_int lo /. Float.Array.get pair p_fn in
  let u = t *. (1.0 -. t) in
  let m =
    ha +. (t *. dh)
    -. (Float.Array.get sc.surf lo +. ((bulge_c *. u) +. (fres_c *. sqrt u)))
  in
  m < 0.0 || walk_chunk sc ~lo:(lo + 1) ~hi

(* Compute and store every per-pair constant in [sc.pair] and size the
   sample buffers.  Returns the step count [n], or 0 when the pair is
   out of range.  [@inline] keeps the float intermediates in registers
   across the (non-flambda) call boundary. *)
let[@inline] [@cisp.zero_alloc] begin_profile sc ~params a b =
  let total = Geodesy.distance_km a.position b.position in
  if total > params.max_range_km || total < params.min_range_km then 0
  else begin
    let n = max 2 (int_of_float (Float.ceil (total /. step_km))) in
    ensure sc (n + 1);
    let pair = sc.pair in
    Fresnel.pair_coeffs_into ~k:k_factor ~f_ghz ~d_km:total ~out:pair;
    let ha = a.ground_m +. a.antenna_m in
    let hb = b.ground_m +. b.antenna_m in
    Float.Array.set pair p_fn (float_of_int n);
    Float.Array.set pair p_ha ha;
    Float.Array.set pair p_dh (hb -. ha);
    let d = total /. Units.earth_radius_km in
    Float.Array.set pair p_d d;
    Float.Array.set pair p_sind (sin d);
    let phi1 = Units.deg_to_rad (Coord.lat a.position)
    and lam1 = Units.deg_to_rad (Coord.lon a.position)
    and phi2 = Units.deg_to_rad (Coord.lat b.position)
    and lam2 = Units.deg_to_rad (Coord.lon b.position) in
    Float.Array.set pair p_cp1 (cos phi1);
    Float.Array.set pair p_sp1 (sin phi1);
    Float.Array.set pair p_cl1 (cos lam1);
    Float.Array.set pair p_sl1 (sin lam1);
    Float.Array.set pair p_cp2 (cos phi2);
    Float.Array.set pair p_sp2 (sin phi2);
    Float.Array.set pair p_cl2 (cos lam2);
    Float.Array.set pair p_sl2 (sin lam2);
    Float.Array.set pair p_lat1 (Coord.lat a.position);
    Float.Array.set pair p_lon1 (Coord.lon a.position);
    n
  end

(* The closure-free cached profile walk: position and sample in chunks
   so a blockage early in the walk stops the sweep before paying for
   the rest of the path — most of a sweep's terrain evaluations are on
   paths that fail within a few samples.  Chunking changes no result
   (every computed value is a pure function of its index).  True iff
   a sample from [lo] on is blocked.  A top-level recursive function,
   not a local one: a local [rec scan] would capture its environment
   and allocate a closure per check. *)
let rec scan_cached cache sc ~n ~lo =
  lo < n
  &&
  let hi = min (n - 1) (lo + 7) in
  fill_positions sc ~lo ~hi;
  Dem_cache.surface_samples cache ~lats:sc.lats ~lons:sc.lons ~out:sc.surf ~lo ~hi;
  walk_chunk sc ~lo ~hi || scan_cached cache sc ~n ~lo:(hi + 1)

(* True iff the pair is in range and no sample is blocked.  This is
   the zero-allocation core the hop sweeps drive from pool workers: it
   allocates nothing once the scratch buffers have grown (the DEM
   evaluations behind [Dem_cache.surface_samples] allocate on their
   own account).  The cheap rejection: the midpoint has the deepest
   curvature bulge and is the likeliest blockage, so it is positioned
   and sampled alone before paying for the full profile. *)
let[@cisp.zero_alloc] profile_status_cached ~params ~cache a b =
  let sc = Domain.DLS.get scratch_key in
  let n = begin_profile sc ~params a b in
  n > 0
  &&
  let mid = n / 2 in
  fill_positions sc ~lo:mid ~hi:mid;
  Dem_cache.surface_samples cache ~lats:sc.lats ~lons:sc.lons ~out:sc.surf
    ~lo:mid ~hi:mid;
  not (walk_chunk sc ~lo:mid ~hi:mid || scan_cached cache sc ~n ~lo:1)

(* [?params] without default sugar: `?(params = default_params)`
   desugars to a let binding between the parameter lambdas, turning
   the rest of the function into a runtime closure allocated on every
   call — the explicit match keeps the parameter chain intact. *)
let[@cisp.zero_alloc] feasible_cached ?params ~cache a b =
  let params = match params with Some p -> p | None -> default_params in
  profile_status_cached ~params ~cache a b
