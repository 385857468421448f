(** Packet-level network: nodes, links with FIFO drop-tail queues,
    source-routed packets, and built-in measurement (the paper's
    FlowMonitor plus the custom link-utilization module of §5). *)

type packet = {
  flow_id : int;
  size_bytes : int;
  route : int array;        (** node sequence, route.(0) = source *)
  mutable hop : int;        (** index of the node currently holding it *)
  mutable injected_at : float;
  payload : int;            (** opaque, used by TCP for sequence numbers *)
}

type t

val create : Engine.t -> n_nodes:int -> t

val engine : t -> Engine.t

val add_link :
  t -> src:int -> dst:int -> gbps:float -> delay_ms:float -> buffer_bytes:int -> unit
(** Directed link.  At most one link per (src, dst). *)

val add_duplex :
  t -> int -> int -> gbps:float -> delay_ms:float -> buffer_bytes:int -> unit

val inject : t -> packet -> unit
(** Start forwarding at [route.(hop)]; [injected_at] is stamped. *)

val on_delivery : t -> flow_id:int -> (packet -> float -> unit) -> unit
(** Handler invoked when a packet of flow [flow_id] reaches the end of
    its route, with the delivery time (use with [injected_at] for
    one-way delay).  TCP registers here.  A delivery runs only its own
    flow's handler.  Raises [Invalid_argument] if [flow_id] already
    has one. *)

val clear_delivery : t -> flow_id:int -> unit
(** Remove [flow_id]'s delivery handler, if any. *)

(** {2 Measurements} *)

type flow_stats = {
  sent : int;
  delivered : int;
  dropped : int;
  delay_sum_s : float;
  delay_max_s : float;
}

val flow_stats : t -> int -> flow_stats
(** Read-only: an id no packet ever used reports all-zero stats and
    leaves the flow table untouched (it will not appear in
    {!all_flow_stats}). *)

val all_flow_stats : t -> (int * flow_stats) list

val mean_delay_ms : t -> float
(** Delivery-weighted mean one-way delay across all flows. *)

val loss_rate : t -> float
(** Dropped / sent across all flows. *)

type link_stats = {
  bytes_sent : int;
  drops : int;
  queue_peak_bytes : int;
  busy_s : float;           (** cumulative transmission time *)
}

val link_stats : t -> src:int -> dst:int -> link_stats option

val queue_bytes : t -> src:int -> dst:int -> int
(** Instantaneous queue occupancy (for the Fig 6 pacing experiment). *)

val flush_telemetry : t -> unit
(** Flush per-link counters (drops, bytes, queue peaks, busy time) and
    per-flow totals into {!Cisp_util.Telemetry} at teardown.  No-op
    when telemetry is disabled. *)
