(** Build a packet-level network from a designed topology.

    Follows the paper's simulation setup: "we aggregate the bandwidth
    of parallel links and remove the individual tower hops to focus on
    network links between the routing sites" — each site pair is one
    simulated link on the medium its routes take
    ({!Cisp_design.Topology.rides_mw}): a built MW link at its
    provisioned aggregate capacity, or a fiber edge with plentiful
    capacity. *)

type config = {
  fiber_gbps : float;          (** capacity of each fiber edge *)
  buffer_bytes : int;          (** drop-tail buffer per link *)
}

val default_config : config
(** 400 Gbps fiber edges; 50 kB buffers (ns-3's default 100-packet
    drop-tail queue at 500 B packets). *)

val build :
  Engine.t ->
  Cisp_design.Inputs.t ->
  Cisp_design.Topology.t ->
  mw_gbps:((int * int) -> float) ->
  Net.t
(** One node per site and one duplex link per connected site pair, on
    the medium {!Cisp_design.Topology.rides_mw} picks: the built MW
    link at capacity [mw_gbps], else the fiber pair at
    [default_config]'s capacity.  Propagation delay comes from the
    latency-equivalent distance ({!Cisp_design.Topology.hop_km});
    buffers are [default_config]'s. *)

val provisioned_mw_gbps :
  Cisp_design.Capacity.plan -> (int * int) -> float
(** Capacity function from a step-3 plan: k^2 Gbps per link. *)
