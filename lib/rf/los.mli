(** Line-of-sight feasibility engine (paper §3.1).

    Decides whether a MW hop between two antennae is viable: the direct
    ray, sampled along the great circle, must clear the terrain surface
    (elevation + clutter) plus the Earth bulge plus the full first
    Fresnel zone at every sample point, and the hop must be within
    range.

    The terrain is abstracted as a surface function so callers can
    plug in a raw {!Cisp_terrain.Dem}, its ~400 m raster view
    {!Cisp_terrain.Dem_cache}, or a test fixture.  The sweep hot path
    should use {!check_cached}/{!feasible_cached}, which sample the
    profile into per-domain scratch buffers in bulk — no per-sample
    closure call or lock, and no allocation outside the DEM
    evaluations themselves.

    All entry points share one profile engine: great-circle positions
    are interpolated with pair-constant trigonometry hoisted out of
    the sample loop, the Fresnel + bulge clearance requirement is
    priced per sample from two hoisted pair coefficients
    ({!Fresnel.pair_coeffs}), and the midpoint — the likeliest
    blockage — is tested before the full profile is sampled.
    [check ~surface:f] and [check_cached ~cache] agree bit-for-bit
    when [f] is that cache's [surface_m]. *)

type params = {
  max_range_km : float;   (** paper: 100 km baseline, 60-100 swept in Fig 10 *)
  f_ghz : float;          (** carrier frequency, 11 GHz *)
  k_factor : float;       (** effective Earth radius factor, 1.3 *)
  step_km : float;        (** profile sampling step *)
  min_range_km : float;   (** hops shorter than this are pointless *)
}

val default_params : params

type endpoint = {
  position : Cisp_geo.Coord.t;
  ground_m : float;       (** terrain elevation at the base *)
  antenna_m : float;      (** antenna height above ground *)
}

type verdict =
  | Clear of float        (** minimum clearance margin over requirement, m *)
  | Out_of_range
  | Blocked of { at_km : float; deficit_m : float }
      (** first sample that violates clearance, and by how much *)

val check :
  ?params:params -> surface:(Cisp_geo.Coord.t -> float) ->
  endpoint -> endpoint -> verdict
(** Full profile check between two endpoints; [surface] returns the
    obstruction height (ground + clutter) in metres. *)

val feasible :
  ?params:params -> surface:(Cisp_geo.Coord.t -> float) ->
  endpoint -> endpoint -> bool
(** [true] iff [check] returns [Clear _]. *)

val check_dem :
  ?params:params -> dem:Cisp_terrain.Dem.t -> endpoint -> endpoint -> verdict
(** Convenience wrapper querying the DEM directly (uncached). *)

val check_cached :
  ?params:params -> cache:Cisp_terrain.Dem_cache.t -> endpoint -> endpoint -> verdict
(** [check] with the profile sampled in bulk through
    {!Cisp_terrain.Dem_cache.surface_samples}: the lock-free entry
    used by the tower LOS sweep, allocating only inside the DEM
    evaluations.  Verdicts are bit-identical to
    [check ~surface:(Dem_cache.surface_m cache)]. *)

val feasible_cached :
  ?params:params -> cache:Cisp_terrain.Dem_cache.t -> endpoint -> endpoint -> bool
(** [true] iff [check_cached] returns [Clear _]. *)

val endpoint_of_tower :
  dem:Cisp_terrain.Dem.t -> Cisp_geo.Coord.t -> antenna_m:float -> endpoint
(** Convenience constructor reading ground elevation from the DEM. *)
