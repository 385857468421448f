(** Registry culling, paper §4.

    "Towers from rental companies are typically suitable for use.  From
    the FCC database, we only use towers over 100 m height.  When
    tower-density exceeds 50 towers per 0.5 degree square grid cell, we
    randomly sample towers."  Those values are fixed here: FCC towers
    of at least 100 m, at most 50 towers per 0.5° cell, sampled with a
    fixed seed. *)

val apply : Tower.t list -> Tower.t list
(** Deterministic culled registry. *)
