(** Synthetic precipitation fields (substitute for NASA TRMM/GPM data,
    paper §6.1).

    Each 30-minute interval gets a deterministic set of storm cells:
    Gaussian rain blobs with realistic radii (tens of km) and peak
    rates (up to ~100 mm/h for convective cores).  Storm frequency
    and intensity follow a coarse seasonal and regional climatology:
    summer convection is more intense, winter systems are wider and
    weaker, and a per-region wetness map concentrates events (e.g.
    over the US southeast). *)

type storm = {
  center : Cisp_geo.Coord.t;
  radius_km : float;
  peak_mm_h : float;
}

type t = {
  day : int;
  base_mm_h : float;    (** rain everywhere, under the storms *)
  storms : storm list;
}

type climate = {
  bbox : Cisp_geo.Coord.bbox;
  mean_storms_per_interval : float;
  wetness : Cisp_geo.Coord.t -> float;
      (** relative storm likelihood at a location, ~1 average *)
}

val us_climate : climate
val eu_climate : climate

val sample : ?seed:int -> climate -> day:int -> t
(** The field for (an arbitrary 30-minute interval of) [day] in
    [0, 365). *)

val rain_at : t -> Cisp_geo.Coord.t -> float
(** Rain rate in mm/h: the max of [base_mm_h] and the overlapping
    cells. *)

val uniform : mm_h:float -> t
(** The same rain rate everywhere, with no storm cells. *)

val hurricane : center:Cisp_geo.Coord.t -> t
(** A stationary, intense, wide system (for the §2 Hurricane-Sandy
    style stress test). *)
