type t = { lat : float; lon : float }

(* [@inline] on the float-returning accessors below: without flambda a
   cross-module call boxes its float result, and these run per sample
   inside the zero-alloc LOS walk. *)
let[@inline] [@cisp.zero_alloc] normalize_lon lon =
  let l = Float.rem (lon +. 180.0) 360.0 in
  let l = if l < 0.0 then l +. 360.0 else l in
  l -. 180.0

let make ~lat ~lon =
  if lat < -90.0 || lat > 90.0 then
    invalid_arg (Printf.sprintf "Coord.make: latitude %f out of range" lat);
  { lat; lon = normalize_lon lon }

let[@inline] lat t = t.lat
let[@inline] lon t = t.lon
let equal a b = Float.equal a.lat b.lat && Float.equal a.lon b.lon

let compare a b =
  match Float.compare a.lat b.lat with
  | 0 -> Float.compare a.lon b.lon
  | c -> c

type bbox = { min_lat : float; max_lat : float; min_lon : float; max_lon : float }

let bbox_of_points = function
  | [] -> invalid_arg "Coord.bbox_of_points: empty"
  | p :: ps ->
    List.fold_left
      (fun b q ->
        {
          min_lat = Float.min b.min_lat q.lat;
          max_lat = Float.max b.max_lat q.lat;
          min_lon = Float.min b.min_lon q.lon;
          max_lon = Float.max b.max_lon q.lon;
        })
      { min_lat = p.lat; max_lat = p.lat; min_lon = p.lon; max_lon = p.lon }
      ps

let expand_bbox b ~margin_deg =
  {
    min_lat = Float.max (-90.0) (b.min_lat -. margin_deg);
    max_lat = Float.min 90.0 (b.max_lat +. margin_deg);
    min_lon = b.min_lon -. margin_deg;
    max_lon = b.max_lon +. margin_deg;
  }
