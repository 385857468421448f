type t = { name : string; coord : Cisp_geo.Coord.t; population : int }

let make name ~lat ~lon ~population =
  if population < 0 then invalid_arg "City.make: negative population";
  { name; coord = Cisp_geo.Coord.make ~lat ~lon; population }

let compare_population_desc a b = Int.compare b.population a.population
