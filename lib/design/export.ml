let buf_add = Buffer.add_string

(* Every control character below 0x20 must be escaped for the output
   to be valid JSON (RFC 8259 §7): the named short escapes where they
   exist, \u00XX for the rest. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let point_feature (c : Cisp_data.City.t) =
  Printf.sprintf
    {|{"type":"Feature","geometry":{"type":"Point","coordinates":[%.4f,%.4f]},"properties":{"name":"%s","population":%d}}|}
    (Cisp_geo.Coord.lon c.coord) (Cisp_geo.Coord.lat c.coord) (json_escape c.name) c.population

let link_feature (inputs : Inputs.t) ?series (i, j) =
  let a = inputs.sites.(i).Cisp_data.City.coord and b = inputs.sites.(j).Cisp_data.City.coord in
  let mw = inputs.mw_km.(i).(j) in
  let stretch = mw /. Float.max 1e-9 inputs.geodesic_km.(i).(j) in
  let series_prop = match series with None -> "" | Some k -> Printf.sprintf {|,"series":%d|} k in
  Printf.sprintf
    {|{"type":"Feature","geometry":{"type":"LineString","coordinates":[[%.4f,%.4f],[%.4f,%.4f]]},"properties":{"medium":"mw","length_km":%.1f,"stretch":%.3f%s}}|}
    (Cisp_geo.Coord.lon a) (Cisp_geo.Coord.lat a) (Cisp_geo.Coord.lon b) (Cisp_geo.Coord.lat b)
    mw stretch series_prop

let collection features =
  let b = Buffer.create 4096 in
  buf_add b {|{"type":"FeatureCollection","features":[|};
  List.iteri
    (fun k f ->
      if k > 0 then buf_add b ",";
      buf_add b f)
    features;
  buf_add b "]}";
  Buffer.contents b

let topology_geojson (inputs : Inputs.t) (topo : Topology.t) =
  let sites = Array.to_list (Array.map point_feature inputs.sites) in
  let links = List.map (fun l -> link_feature inputs l) topo.Topology.built in
  collection (sites @ links)

let topology_with_plan_geojson (inputs : Inputs.t) (topo : Topology.t) (plan : Capacity.plan) =
  let series_of =
    let table = Hashtbl.create 64 in
    List.iter
      (fun (lp : Capacity.link_plan) -> Hashtbl.replace table lp.Capacity.link lp.Capacity.series)
      plan.Capacity.links;
    fun pair -> Option.value (Hashtbl.find_opt table pair) ~default:1
  in
  let sites = Array.to_list (Array.map point_feature inputs.sites) in
  let links =
    List.map (fun pair -> link_feature inputs ~series:(series_of pair) pair) topo.Topology.built
  in
  collection (sites @ links)
