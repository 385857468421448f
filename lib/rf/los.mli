(** Line-of-sight feasibility engine (paper §3.1).

    Decides whether a MW hop between two antennae is viable: the direct
    ray, sampled along the great circle, must clear the terrain surface
    (elevation + clutter) plus the Earth bulge plus the full first
    Fresnel zone at every sample point, and the hop must be within
    range.

    The terrain is the ~400 m raster view {!Cisp_terrain.Dem_cache}.
    There is one profile walk: great-circle positions are interpolated
    with pair-constant trigonometry hoisted out of the sample loop and
    sampled in bulk through {!Cisp_terrain.Dem_cache.surface_samples}
    into per-domain scratch buffers, the Fresnel + bulge clearance
    requirement is priced per sample from two hoisted pair coefficients
    ({!Fresnel.pair_coeffs_into}), and the midpoint — the likeliest
    blockage — is tested before the full profile is sampled.  The walk
    takes no lock and allocates nothing outside the DEM evaluations
    themselves.

    The radio is fixed at the paper's values (§3.1): an 11 GHz carrier,
    an effective Earth radius factor K = 1.3, and a profile sampled
    every 1 km. *)

type params = {
  max_range_km : float;   (** paper: 100 km baseline, 60-100 swept in Fig 10 *)
  min_range_km : float;   (** hops shorter than this are pointless *)
}

val default_params : params

type endpoint = {
  position : Cisp_geo.Coord.t;
  ground_m : float;       (** terrain elevation at the base *)
  antenna_m : float;      (** antenna height above ground *)
}

val feasible_cached :
  ?params:params -> cache:Cisp_terrain.Dem_cache.t -> endpoint -> endpoint -> bool
(** [true] iff the hop is within range and every profile sample
    clears the raster view's surface (ground + clutter at the sample's
    cell centre) plus the Earth bulge and the first Fresnel zone.  The
    one LOS entry: the tower LOS sweep drives it from pool workers,
    allocation-free once the scratch buffers have grown. *)
