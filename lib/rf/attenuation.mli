(** Rain attenuation, ITU-R P.838-3 power-law model (paper §6.1).

    Specific attenuation gamma = k * R^alpha dB/km, where R is the rain
    rate in mm/h and (k, alpha) depend on frequency and polarization.
    The effective path length correction of ITU-R P.530 accounts for
    rain cells being smaller than long hops. *)

type polarization = Horizontal | Vertical

val specific_attenuation_db_per_km :
  f_ghz:float -> polarization -> rain_mm_h:float -> float
(** gamma = k R^alpha, with [(k, alpha)] log-interpolated between the
    tabulated P.838-3 anchor frequencies (4-20 GHz supported; clamped
    outside). *)

val effective_path_km : d_km:float -> rain_mm_h:float -> float
(** ITU-R P.530 distance factor: d_eff = d / (1 + d / d0) with
    d0 = 35 exp(-0.015 R) (R capped at 100 mm/h). *)

val path_attenuation_db :
  f_ghz:float -> polarization -> rain_mm_h:float -> d_km:float -> float
(** Total rain attenuation over a hop: gamma * d_eff. *)
