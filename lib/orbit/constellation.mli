(** Low-Earth-orbit constellations (paper §2).

    The paper dismisses LEO satellites for c-latency service in one
    sentence: "their connectivity fundamentally varies over time,
    necessitating extremely high density to provide latencies similar
    to those achievable with a terrestrial MW network."  This module
    makes that claim checkable: a Walker-delta constellation with
    +grid inter-satellite laser links, ground-to-satellite access
    above a minimum elevation, and time-parameterized shortest-path
    latencies between ground sites.

    Geometry is kept deliberately simple (circular orbits, spherical
    Earth, ideal ISLs at c) — every simplification favors the
    satellites, making the measured stretch a lower bound. *)

type shell = {
  name : string;
  altitude_km : float;
  inclination_deg : float;
  n_planes : int;
  sats_per_plane : int;
  phase_factor : int;        (** Walker phasing offset between planes *)
}

val starlink_like : shell
(** 550 km, 53 degrees, 72 x 22 — the dense modern reference. *)

val sparse_shell : shell
(** 1150 km, 53 degrees, 24 x 12 — an early-constellation density. *)

type sat_position = {
  sat_id : int;
  position_ecef : float * float * float;   (** km, Earth-fixed frame *)
  subpoint : Cisp_geo.Coord.t;
}

val orbital_period : shell -> float
(** Seconds per revolution (Kepler, circular orbit). *)

val positions : shell -> t_s:float -> sat_position array
(** All satellite positions at time [t_s] seconds into the epoch. *)

val min_elevation_deg : float
(** Ground terminals track satellites above 25 degrees elevation. *)

val path_latency_ms :
  shell -> t_s:float -> Cisp_geo.Coord.t -> Cisp_geo.Coord.t -> float option
(** One-way latency at time [t_s]: best uplink + shortest +grid ISL
    route at c + best downlink.  [None] when either endpoint sees no
    satellite. *)

type pair_stats = {
  samples : int;
  coverage : float;           (** fraction of samples with a path *)
  stretch_p50 : float;
  stretch_p95 : float;
  stretch_max : float;
}

val pair_stretch_over_time :
  ?samples:int -> shell -> Cisp_geo.Coord.t -> Cisp_geo.Coord.t -> pair_stats
(** Stretch (vs the geodesic at c) sampled across the shell's orbital
    period (default 96 samples). *)
