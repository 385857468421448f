type config = { pacing : bool; ack_delay_s : float }

let default_config ~ack_delay_s = { pacing = false; ack_delay_s }

(* Segment size (bytes), initial window and slow-start threshold
   (packets), and the retransmission timeout. *)
let mss_bytes = 1500
let init_cwnd = 10
let initial_ssthresh = 64
let rto_s = 0.25

type state = {
  cfg : config;
  net : Net.t;
  flow_id : int;
  route : int array;
  total_pkts : int;
  received : bool array;       (* receiver-side: which seqs have arrived *)
  mutable distinct : int;      (* how many distinct seqs arrived *)
  mutable next_seq : int;      (* next fresh packet to send *)
  mutable resend : int list;   (* lost packets queued for retransmission *)
  mutable cwnd : float;
  mutable ssthresh : int;
  mutable in_flight : int;
  mutable srtt : float;
  mutable progress_stamp : int; (* [distinct] at the last RTO check *)
  mutable done_ : bool;
  on_complete : float -> unit;
}

let send_packet st seq =
  st.in_flight <- st.in_flight + 1;
  Net.inject st.net
    {
      Net.flow_id = st.flow_id;
      size_bytes = mss_bytes;
      route = st.route;
      hop = 0;
      injected_at = 0.0;
      payload = seq;
    }

(* Next sequence number to put on the wire: retransmissions first. *)
let take_seq st =
  match st.resend with
  | seq :: rest ->
    st.resend <- rest;
    Some seq
  | [] ->
    if st.next_seq < st.total_pkts then begin
      let seq = st.next_seq in
      st.next_seq <- seq + 1;
      Some seq
    end
    else None

(* Send as much of the window as allowed.  With pacing the packets are
   spaced over the RTT estimate (at 2x, so pacing does not lengthen
   completion); without, they go out back to back. *)
let rec pump st =
  if (not st.done_) && float_of_int st.in_flight < st.cwnd then begin
    match take_seq st with
    | None -> ()
    | Some seq ->
      send_packet st seq;
      if st.cfg.pacing then begin
        let gap = st.srtt /. (2.0 *. Float.max 1.0 st.cwnd) in
        Engine.schedule_in (Net.engine st.net) ~after:gap (fun () -> pump st)
      end
      else pump st
  end

let handle_ack st seq delivered_at rtt_sample =
  if not st.done_ then begin
    st.in_flight <- max 0 (st.in_flight - 1);
    st.srtt <- (0.875 *. st.srtt) +. (0.125 *. rtt_sample);
    if not st.received.(seq) then begin
      st.received.(seq) <- true;
      st.distinct <- st.distinct + 1
    end;
    if st.cwnd < float_of_int st.ssthresh then st.cwnd <- st.cwnd +. 1.0
    else st.cwnd <- st.cwnd +. (1.0 /. st.cwnd);
    if st.distinct >= st.total_pkts then begin
      st.done_ <- true;
      Net.clear_delivery st.net ~flow_id:st.flow_id;
      st.on_complete delivered_at
    end
    else pump st
  end

(* Timeout recovery: if a whole RTO passes without any new data
   arriving, assume the window was lost — requeue every unreceived
   in-flight sequence, halve the threshold, and restart from a small
   window (go-back-N semantics). *)
let rec watchdog st =
  if not st.done_ then begin
    Engine.schedule_in (Net.engine st.net) ~after:rto_s (fun () ->
        if not st.done_ then begin
          if st.distinct = st.progress_stamp then begin
            let missing = ref [] in
            for seq = st.total_pkts - 1 downto 0 do
              if (not st.received.(seq)) && not (List.mem seq st.resend) && seq < st.next_seq
              then missing := seq :: !missing
            done;
            if !missing <> [] || st.in_flight > 0 then begin
              st.resend <- !missing @ st.resend;
              st.in_flight <- 0;
              st.ssthresh <- max 2 (int_of_float (st.cwnd /. 2.0));
              st.cwnd <- 1.0;
              pump st
            end
          end;
          st.progress_stamp <- st.distinct;
          watchdog st
        end)
  end

let start_flow net cfg ~flow_id ~route ~size_bytes ~at ~on_complete =
  let total_pkts = max 1 ((size_bytes + mss_bytes - 1) / mss_bytes) in
  let st =
    {
      cfg;
      net;
      flow_id;
      route;
      total_pkts;
      received = Array.make total_pkts false;
      distinct = 0;
      next_seq = 0;
      resend = [];
      cwnd = float_of_int init_cwnd;
      ssthresh = initial_ssthresh;
      in_flight = 0;
      srtt = 2.0 *. cfg.ack_delay_s;
      progress_stamp = 0;
      done_ = false;
      on_complete;
    }
  in
  (* Ack path: when one of our packets is delivered, the ack arrives
     after the reverse-path delay and opens the window. *)
  Net.on_delivery net ~flow_id (fun pkt t ->
      let send_time = pkt.Net.injected_at in
      let rtt = t +. cfg.ack_delay_s -. send_time in
      let seq = pkt.Net.payload in
      Engine.schedule (Net.engine net) ~at:(t +. cfg.ack_delay_s) (fun () ->
          handle_ack st seq (t +. cfg.ack_delay_s) rtt));
  Engine.schedule (Net.engine net) ~at (fun () ->
      pump st;
      watchdog st)
