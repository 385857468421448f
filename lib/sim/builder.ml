module Inputs = Cisp_design.Inputs
module Topology = Cisp_design.Topology
module Capacity = Cisp_design.Capacity

type config = { fiber_gbps : float; buffer_bytes : int }

(* ns-3's default drop-tail queue is 100 packets; at the paper's
   500 B packets that is 50 kB — small enough that queuing delay stays
   sub-0.1 ms and overload shows up as loss, exactly Fig 5's regime. *)
let default_config = { fiber_gbps = 400.0; buffer_bytes = 50_000 }

(* One simulated link per connected site pair, on the medium
   {!Topology.rides_mw} picks: the paper's own simplification of
   aggregating parallel links between sites, and the edge every route
   of {!Routing} takes. *)
let build eng (inputs : Inputs.t) (topo : Topology.t) ~mw_gbps =
  let n = Inputs.n_sites inputs in
  let net = Net.create eng ~n_nodes:n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let km = Topology.hop_km topo i j in
      if km < infinity then
        Net.add_duplex net i j
          ~gbps:(if Topology.rides_mw topo i j then mw_gbps (i, j) else default_config.fiber_gbps)
          ~delay_ms:(Cisp_util.Units.ms_of_km_at_c km)
          ~buffer_bytes:default_config.buffer_bytes
    done
  done;
  net

let provisioned_mw_gbps (plan : Capacity.plan) =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (lp : Capacity.link_plan) ->
      Hashtbl.replace table lp.link (Cisp_rf.Capacity.gbps_of_series lp.series))
    plan.Capacity.links;
  fun pair ->
    let key = if fst pair < snd pair then pair else (snd pair, fst pair) in
    Option.value (Hashtbl.find_opt table key) ~default:Cisp_rf.Capacity.hop_gbps
