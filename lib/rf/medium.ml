type technology = Microwave | Millimeter_wave | Free_space_optics

type t = {
  technology : technology;
  name : string;
  max_range_km : float;
  hop_gbps : float;
  radio_usd : float;
  max_parallel_chains : int option;
}

let microwave =
  {
    technology = Microwave;
    name = "microwave 11GHz";
    max_range_km = 100.0;
    hop_gbps = Capacity.hop_gbps;
    radio_usd = 150_000.0;
    max_parallel_chains = Some 8;
  }

let millimeter_wave =
  {
    technology = Millimeter_wave;
    name = "mmw e-band";
    max_range_km = 15.0;
    hop_gbps = 10.0;
    radio_usd = 60_000.0;
    max_parallel_chains = None;
  }

let free_space_optics =
  {
    technology = Free_space_optics;
    name = "free-space optics";
    max_range_km = 3.0;
    hop_gbps = 40.0;
    radio_usd = 40_000.0;
    max_parallel_chains = None;
  }

type chain_cost = {
  medium : t;
  hops : int;
  chains : int;
  towers : int;
  radios : int;
  capex_usd : float;
}

let chain_for m ~link_km ~target_gbps ~tower_usd =
  if not (link_km > 0.0 && target_gbps > 0.0) then
    invalid_arg "Medium.chain_for: link_km and target_gbps must be positive";
  let hops = max 1 (int_of_float (Float.ceil (link_km /. m.max_range_km))) in
  let chains =
    match m.technology with
    | Microwave ->
      (* the paper's k-squared parallel-series trick *)
      Capacity.series_for_gbps target_gbps
    | Millimeter_wave | Free_space_optics ->
      max 1 (int_of_float (Float.ceil (target_gbps /. m.hop_gbps)))
  in
  let feasible =
    match m.max_parallel_chains with None -> true | Some cap -> chains <= cap
  in
  let towers = chains * (hops + 1) in
  let radios = chains * hops in
  {
    medium = m;
    hops;
    chains;
    towers;
    radios;
    capex_usd =
      (if feasible then (float_of_int radios *. m.radio_usd) +. (float_of_int towers *. tower_usd)
       else infinity);
  }

let cheapest_for ~link_km ~target_gbps ~tower_usd =
  let mw = chain_for microwave ~link_km ~target_gbps ~tower_usd in
  let mmw = chain_for millimeter_wave ~link_km ~target_gbps ~tower_usd in
  let fso = chain_for free_space_optics ~link_km ~target_gbps ~tower_usd in
  List.fold_left
    (fun best o -> if o.capex_usd < best.capex_usd then o else best)
    mw [ mmw; fso ]
