(** A named population point. *)

type t = {
  name : string;
  coord : Cisp_geo.Coord.t;
  population : int;
}

val make : string -> lat:float -> lon:float -> population:int -> t
val compare_population_desc : t -> t -> int
