module Geodesy = Cisp_geo.Geodesy
module Coord = Cisp_geo.Coord

(* Union-find with path compression. *)
let find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let root = go i in
  let rec compress i =
    if parent.(i) <> root then begin
      let next = parent.(i) in
      parent.(i) <- root;
      compress next
    end
  in
  compress i;
  root

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then parent.(ri) <- rj

(* Paper §4: cities within 50 km of each other are one center. *)
let radius_km = 50.0

let coalesce cities =
  let arr = Array.of_list cities in
  let n = Array.length arr in
  let parent = Array.init n (fun i -> i) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Geodesy.distance_km arr.(i).City.coord arr.(j).City.coord <= radius_km then
        union parent i j
    done
  done;
  let groups = Hashtbl.create n in
  for i = 0 to n - 1 do
    let root = find parent i in
    let members = Option.value (Hashtbl.find_opt groups root) ~default:[] in
    Hashtbl.replace groups root (arr.(i) :: members)
  done;
  (* Walk groups by root index, not hash order: population ties in the
     final sort would otherwise keep table order. *)
  let centers =
    Cisp_util.Tbl.fold_sorted ~compare:Int.compare
      (fun _ members acc ->
        match members with
        | [] -> acc
        | first :: _ ->
        let total = List.fold_left (fun s c -> s + c.City.population) 0 members in
        let weight c =
          (* Guard against all-zero populations (e.g. data centers). *)
          if total = 0 then 1.0 else float_of_int c.City.population
        in
        let wsum = List.fold_left (fun s c -> s +. weight c) 0.0 members in
        let lat = List.fold_left (fun s c -> s +. (weight c *. Coord.lat c.City.coord)) 0.0 members /. wsum in
        let lon = List.fold_left (fun s c -> s +. (weight c *. Coord.lon c.City.coord)) 0.0 members /. wsum in
        let biggest =
          List.fold_left
            (fun best c -> if c.City.population > best.City.population then c else best)
            first members
        in
        City.make biggest.City.name ~lat ~lon ~population:total :: acc)
      groups []
  in
  List.sort City.compare_population_desc centers

let us_population_centers () = coalesce Us_cities.all
let eu_population_centers () = coalesce Eu_cities.all
