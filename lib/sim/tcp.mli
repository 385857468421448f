(** A small TCP model for the speed-mismatch experiment (paper §5,
    Fig 6).

    Models a window-based sender: slow start from an initial window,
    additive increase past the threshold, acknowledgements returning
    over an uncongested reverse path.  With [pacing] the window's
    packets are spread over one RTT estimate instead of bursting at
    line rate.  Loss recovery is timeout-based go-back-N with
    multiplicative decrease: enough for the Fig 6 scenario (unbounded
    buffers, no loss) and for finite-buffer experiments where drops
    must not wedge a flow.  Every flow uses a 1500-byte MSS, an
    initial window of 10 packets, a slow-start threshold of 64 packets
    and a 250 ms retransmission timeout. *)

type config = {
  pacing : bool;
  ack_delay_s : float;      (** reverse-path one-way delay *)
}

val default_config : ack_delay_s:float -> config
(** No pacing. *)

val start_flow :
  Net.t ->
  config ->
  flow_id:int ->
  route:int array ->
  size_bytes:int ->
  at:float ->
  on_complete:(float -> unit) ->
  unit
(** Transfers [size_bytes]; [on_complete] fires with the completion
    time (flow completion time = that minus [at]).  The flow handles
    its own deliveries ({!Net.on_delivery}) until it completes. *)
