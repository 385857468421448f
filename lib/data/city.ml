type t = { name : string; coord : Cisp_geo.Coord.t; population : int }

let make name ~lat ~lon ~population =
  if population < 0 then invalid_arg "City.make: negative population";
  { name; coord = Cisp_geo.Coord.make ~lat ~lon; population }

let compare_population_desc a b = Int.compare b.population a.population

let geodesic_matrix sites =
  let n = Array.length sites in
  let d = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let g = Cisp_geo.Geodesy.distance_km sites.(i).coord sites.(j).coord in
      d.(i).(j) <- g;
      d.(j).(i) <- g
    done
  done;
  d
