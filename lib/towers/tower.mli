(** A registered antenna structure. *)

type source =
  | Fcc            (** FCC Antenna Structure Registration style entry *)
  | Rental         (** commercial tower company (American Towers, ...) *)
  | City           (** rooftop / urban structure near a site *)

type t = {
  id : int;
  position : Cisp_geo.Coord.t;
  height_m : float;      (** structure height above ground *)
  source : source;
}

val make : id:int -> position:Cisp_geo.Coord.t -> height_m:float -> source:source -> t

val usable_height_m : t -> fraction:float -> float
(** Antenna mounting height when only a [fraction] of the structure is
    available (paper §6.5 sweeps 1.0, 0.85, 0.65, 0.45). *)
