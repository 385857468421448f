module Rng = Cisp_util.Rng
module Units = Cisp_util.Units
module Coord = Cisp_geo.Coord
module Geodesy = Cisp_geo.Geodesy
module Dem = Cisp_terrain.Dem
module City = Cisp_data.City

type config = {
  seed : int;
  corridor_spacing_km : float;
  background_count : int;
}

let default_config = { seed = 7; corridor_spacing_km = 20.0; background_count = 7000 }

(* The generator's constants (synth.mli lists them): the spread of a
   city cluster, the corridors' reach and lateral scatter, and the
   height clamp around the FCC registry's mix (paper §4). *)
let city_radius_km = 30.0
let corridor_max_km = 1200.0
let corridor_jitter_km = 3.0
let min_height_m = 50.0
let max_height_m = 350.0

(* Heights: lognormal body with a clamp; taller structures are rarer.
   Mountainous ground reduces achievable height a bit (harder siting)
   but high ground elevation compensates in line-of-sight terms. *)
let sample_height ?(median = 120.0) ?(tall_frac = 0.12) rng =
  (* Mixture: ordinary towers around the median, plus the tall
     broadcast-mast tail visible in the FCC registry (250 m+). *)
  let h =
    if Rng.float rng 1.0 < tall_frac then Rng.uniform rng 250.0 max_height_m
    else Rng.lognormal rng (log median) 0.5
  in
  Float.max min_height_m (Float.min max_height_m h)

let random_point_near rng center ~radius_km =
  let bearing = Rng.float rng 360.0 in
  (* sqrt for uniform density over the disk, biased slightly inward. *)
  let dist = radius_km *. sqrt (Rng.float rng 1.0) in
  Geodesy.destination center ~bearing_deg:bearing ~distance_km:dist

(* Real towers are sited on local high ground; emulate by sampling a
   few candidate positions and keeping the highest. *)
let high_point dem rng sample_fn =
  let best = ref (sample_fn rng) in
  for _ = 2 to 3 do
    let p = sample_fn rng in
    if Dem.elevation_m dem p > Dem.elevation_m dem !best then best := p
  done;
  !best

let city_cluster rng dem (city : City.t) =
  let count =
    let base = float_of_int city.population /. 100_000.0 *. Units.towers_per_100k in
    max 6 (int_of_float (Float.ceil base))
  in
  (* Cap the very largest metros: the paper randomly subsamples dense
     cells anyway, so extra towers there only burn compute. *)
  let count = min count 80 in
  List.init count (fun _ ->
      let p = high_point dem rng (fun rng -> random_point_near rng city.coord ~radius_km:city_radius_km) in
      let rugged = Dem.ruggedness dem p in
      let h = sample_height rng *. (if rugged > 600.0 then 0.8 else 1.0) in
      (p, h, Tower.City))

let corridor_towers cfg rng dem (a : City.t) (b : City.t) =
  let d = Geodesy.distance_km a.coord b.coord in
  if d > corridor_max_km || d < 60.0 then []
  else begin
    let n = int_of_float (d /. cfg.corridor_spacing_km) in
    List.concat
      (List.init n (fun i ->
           let t = float_of_int (i + 1) /. float_of_int (n + 1) in
           let on_path = Geodesy.interpolate a.coord b.coord ~frac:t in
           let p =
             high_point dem rng (fun rng ->
                 let bearing = Rng.float rng 360.0 in
                 let off = Rng.float rng corridor_jitter_km in
                 Geodesy.destination on_path ~bearing_deg:bearing ~distance_km:off)
           in
           (* Rugged terrain thins corridors out. *)
           let rugged = Dem.ruggedness dem p in
           let keep_prob = if rugged > 900.0 then 0.55 else 0.95 in
           if Rng.float rng 1.0 < keep_prob then
             [ (p, sample_height ~median:160.0 ~tall_frac:0.18 rng, Tower.Fcc) ]
           else []))
  end

let background cfg dem rng (bbox : Coord.bbox) =
  List.init cfg.background_count (fun _ ->
      let p =
        high_point dem rng (fun rng ->
            let lat = Rng.uniform rng bbox.min_lat bbox.max_lat in
            let lon = Rng.uniform rng bbox.min_lon bbox.max_lon in
            Coord.make ~lat ~lon)
      in
      (p, sample_height rng, Tower.Rental))

let generate ?(config = default_config) ~dem ~sites () =
  let rng = Rng.create config.seed in
  let cities = Array.of_list sites in
  let clusters =
    Array.to_list cities |> List.concat_map (fun c -> city_cluster rng dem c)
  in
  (* Corridors follow a highway-like graph: each city is joined to its
     nearest neighbours, not to every other city. *)
  let corridors =
    let n = Array.length cities in
    let knn = 8 in
    let wanted = Hashtbl.create (n * knn) in
    for i = 0 to n - 1 do
      let dists =
        Array.init n (fun j ->
            (Geodesy.distance_km cities.(i).City.coord cities.(j).City.coord, j))
      in
      Array.sort
        (fun (da, ja) (db, jb) ->
          match Float.compare da db with 0 -> Int.compare ja jb | c -> c)
        dists;
      let count = min knn (n - 1) in
      for r = 1 to count do
        let _, j = dists.(r) in
        let key = (min i j, max i j) in
        Hashtbl.replace wanted key ()
      done
    done;
    (* [rng] is consumed per corridor, so corridors must come in a
       fixed order — hash order would tie tower placement to the
       table's insertion history. *)
    Cisp_util.Tbl.fold_sorted
      ~compare:(fun (ai, aj) (bi, bj) ->
        match Int.compare ai bi with 0 -> Int.compare aj bj | c -> c)
      (fun (i, j) () acc -> corridor_towers config rng dem cities.(i) cities.(j) :: acc)
      wanted []
    |> List.concat
  in
  let bbox =
    Coord.expand_bbox
      (Coord.bbox_of_points (List.map (fun (c : City.t) -> c.coord) sites))
      ~margin_deg:1.0
  in
  let rural = background config dem rng bbox in
  List.mapi
    (fun id (position, height_m, source) -> Tower.make ~id ~position ~height_m ~source)
    (clusters @ corridors @ rural)
