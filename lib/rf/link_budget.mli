(** Simple microwave link budget.

    Used to derive per-hop fade margins, which the weather analysis
    turns into binary failure thresholds.  The equipment is fixed: a
    typical long-haul radio in the paper's 11 GHz licensed band (§3.1)
    with ~1.8 m dishes — 30 dBm transmit power, 43 dBi per antenna, a
    -72 dBm receiver threshold and 3 dB of connector, waveguide and
    alignment losses. *)

val fspl_db : f_ghz:float -> d_km:float -> float
(** Free-space path loss: 92.45 + 20 log10(f) + 20 log10(d). *)

val fade_margin_db : f_ghz:float -> d_km:float -> float
(** Received-signal margin over threshold in clear air — the rain
    attenuation a hop can absorb before outage.  Longer hops have
    smaller margins, so they fail at lower rain rates. *)
