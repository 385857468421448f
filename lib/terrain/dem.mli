(** Synthetic digital elevation model.

    Substitute for the NASA SRTM/NED terrain data used by the paper
    (§3.1).  The model is a deterministic function of geographic
    coordinates: a continental base surface plus noise whose amplitude
    is modulated by region (flat plains, rolling hills, mountain
    ranges), plus a ground-clutter term standing in for tree canopy and
    buildings.  Profiles sampled from it have realistic obstruction
    statistics for line-of-sight work, which is all the design
    algorithm consumes. *)

type region = Us_continental | Europe | Flat | Custom of relief list

and relief = {
  center : Cisp_geo.Coord.t;  (** range centerline anchor *)
  axis_bearing_deg : float;   (** orientation of the range *)
  half_length_km : float;     (** extent along the axis *)
  half_width_km : float;      (** extent across the axis *)
  peak_m : float;             (** added relief amplitude at the core *)
}

type t

val create : ?seed:int -> region -> t
(** [create region] builds the elevation model.  Default seed 42. *)

val elevation_m : t -> Cisp_geo.Coord.t -> float
(** Ground elevation above sea level, metres; >= 0. *)

val clutter_m : t -> Cisp_geo.Coord.t -> float
(** Height of trees / buildings above ground at this point, metres. *)

val surface_m : t -> Cisp_geo.Coord.t -> float
(** [elevation_m + clutter_m]: the height an unobstructed ray must
    clear. *)

val ruggedness : t -> Cisp_geo.Coord.t -> float
(** Local relief amplitude in metres — proxy for how hard tower siting
    and line-of-sight are around this point (used to modulate synthetic
    tower density). *)
