(** A named population point. *)

type t = {
  name : string;
  coord : Cisp_geo.Coord.t;
  population : int;
}

val make : string -> lat:float -> lon:float -> population:int -> t
val compare_population_desc : t -> t -> int

val geodesic_matrix : t array -> float array array
(** Great-circle distance between every pair of cities, in km; zero
    on the diagonal. *)
