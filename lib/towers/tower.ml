type source = Fcc | Rental | City

type t = {
  id : int;
  position : Cisp_geo.Coord.t;
  height_m : float;
  source : source;
}

let make ~id ~position ~height_m ~source =
  if height_m <= 0.0 then invalid_arg "Tower.make: height_m <= 0";
  { id; position; height_m; source }

let usable_height_m t ~fraction =
  if not (fraction > 0.0 && fraction <= 1.0) then
    invalid_arg "Tower.usable_height_m: fraction outside (0,1]";
  t.height_m *. fraction
