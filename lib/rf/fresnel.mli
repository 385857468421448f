(** Microwave path-clearance geometry (paper §3.1).

    A MW hop must clear the Earth's curvature "bulge" and keep the
    first Fresnel zone free of obstructions.  With atmospheric
    refraction folded into an effective Earth radius factor [k]
    (paper: K = 1.3), the bulge at a point d1 km from one end and d2 km
    from the other is d1*d2 / (2 k R); the first Fresnel-zone radius is
    sqrt(lambda d1 d2 / (d1 + d2)).  At the midpoint these reduce to
    the paper's closed forms (8.7 m sqrt(D/f) and D^2/(50 K) m). *)

val default_k : float
(** Effective Earth radius factor, 1.3 (paper §3.1). *)

val default_f_ghz : float
(** Carrier frequency, 11 GHz (paper §3.1). *)

val earth_bulge_m : ?k:float -> d1_km:float -> d2_km:float -> unit -> float
(** Curvature bulge height at a point [d1_km] from one endpoint and
    [d2_km] from the other. *)

val fresnel_radius_m : ?f_ghz:float -> d1_km:float -> d2_km:float -> unit -> float
(** First Fresnel-zone radius at the same point. *)

val midpoint_bulge_m : ?k:float -> d_km:float -> unit -> float
(** Paper's midpoint formula: (1/50K)(D/1km)^2 metres. *)

val midpoint_fresnel_m : ?f_ghz:float -> d_km:float -> unit -> float
(** Paper's midpoint formula: ~8.7 m (D/1km)^(1/2) (f/1GHz)^(-1/2). *)

val required_clearance_m :
  ?k:float -> ?f_ghz:float -> d1_km:float -> d2_km:float -> unit -> float
(** Bulge plus full first-Fresnel radius: the height above the terrain
    surface that the direct ray must attain at this point. *)

val pair_coeffs_into : k:float -> f_ghz:float -> d_km:float -> out:Float.Array.t -> unit
(** Writes [bulge_c] to [out.(0)] and [fresnel_c] to [out.(1)] for a
    hop of length [d_km]: at the point a fraction [t] along the path,
    with [u = t *. (1. -. t)], [required_clearance_m] equals
    [bulge_c *. u +. fresnel_c *. sqrt u] (same algebra, hoisted so a
    profile walk pays one multiply-add and one sqrt per sample).  The
    zero-allocation form for the LOS profile engine
    ([@cisp.zero_alloc]); all labels are required so no call site pays
    optional-argument wrapping. *)
