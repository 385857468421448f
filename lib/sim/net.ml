type packet = {
  flow_id : int;
  size_bytes : int;
  route : int array;
  mutable hop : int;
  mutable injected_at : float;
  payload : int;
}

type link = {
  rate_bps : float;
  delay_s : float;
  buffer_bytes : int;
  mutable queue_bytes : int;
  mutable busy_until : float;
  mutable bytes_sent : int;
  mutable drops : int;
  mutable queue_peak : int;
  mutable busy_s : float;
}

type mutable_flow_stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable delay_sum : float;
  mutable delay_max : float;
}

type t = {
  eng : Engine.t;
  n : int;
  links : (int, link) Hashtbl.t;  (* key = src * n + dst *)
  flows : (int, mutable_flow_stats) Hashtbl.t;
  handlers : (int, packet -> float -> unit) Hashtbl.t;  (* by flow id *)
}

let create eng ~n_nodes =
  {
    eng;
    n = n_nodes;
    links = Hashtbl.create 256;
    flows = Hashtbl.create 64;
    handlers = Hashtbl.create 64;
  }

let engine t = t.eng

let key t src dst = (src * t.n) + dst

let add_link t ~src ~dst ~gbps ~delay_ms ~buffer_bytes =
  if not (src >= 0 && src < t.n && dst >= 0 && dst < t.n && src <> dst) then
    invalid_arg (Printf.sprintf "Net.add_link: bad endpoints %d-%d" src dst);
  if Hashtbl.mem t.links (key t src dst) then
    invalid_arg (Printf.sprintf "Net.add_link: duplicate link %d-%d" src dst);
  Hashtbl.replace t.links (key t src dst)
    {
      rate_bps = gbps *. 1e9;
      delay_s = delay_ms /. 1000.0;
      buffer_bytes;
      queue_bytes = 0;
      busy_until = 0.0;
      bytes_sent = 0;
      drops = 0;
      queue_peak = 0;
      busy_s = 0.0;
    }

let add_duplex t a b ~gbps ~delay_ms ~buffer_bytes =
  add_link t ~src:a ~dst:b ~gbps ~delay_ms ~buffer_bytes;
  add_link t ~src:b ~dst:a ~gbps ~delay_ms ~buffer_bytes

let on_delivery t ~flow_id handler =
  if Hashtbl.mem t.handlers flow_id then
    invalid_arg (Printf.sprintf "Net.on_delivery: flow %d already has a handler" flow_id);
  Hashtbl.replace t.handlers flow_id handler

let clear_delivery t ~flow_id = Hashtbl.remove t.handlers flow_id

(* Write path: the record is created on first use.  Only the traffic
   paths (inject / deliver / drop accounting) may call this — stats
   queries go through the read-only lookup below, so reading an
   unknown flow id never pollutes [all_flow_stats]. *)
let flow t id =
  match Hashtbl.find_opt t.flows id with
  | Some f -> f
  | None ->
    let f = { sent = 0; delivered = 0; dropped = 0; delay_sum = 0.0; delay_max = 0.0 } in
    Hashtbl.add t.flows id f;
    f

let find_flow t id = Hashtbl.find_opt t.flows id

let deliver t pkt =
  let now = Engine.now t.eng in
  let f = flow t pkt.flow_id in
  f.delivered <- f.delivered + 1;
  let d = now -. pkt.injected_at in
  f.delay_sum <- f.delay_sum +. d;
  if d > f.delay_max then f.delay_max <- d;
  match Hashtbl.find_opt t.handlers pkt.flow_id with
  | Some handler -> handler pkt now
  | None -> ()

(* Forward [pkt] from the node at route.(hop) towards route.(hop+1). *)
let rec forward t pkt =
  if pkt.hop >= Array.length pkt.route - 1 then deliver t pkt
  else begin
    let src = pkt.route.(pkt.hop) and dst = pkt.route.(pkt.hop + 1) in
    match Hashtbl.find_opt t.links (key t src dst) with
    | None ->
      (* Broken route: count as a drop. *)
      let f = flow t pkt.flow_id in
      f.dropped <- f.dropped + 1
    | Some link ->
      if link.queue_bytes + pkt.size_bytes > link.buffer_bytes then begin
        link.drops <- link.drops + 1;
        let f = flow t pkt.flow_id in
        f.dropped <- f.dropped + 1
      end
      else begin
        let now = Engine.now t.eng in
        link.queue_bytes <- link.queue_bytes + pkt.size_bytes;
        if link.queue_bytes > link.queue_peak then link.queue_peak <- link.queue_bytes;
        let tx_time = float_of_int pkt.size_bytes *. 8.0 /. link.rate_bps in
        let start = Float.max now link.busy_until in
        let tx_done = start +. tx_time in
        link.busy_until <- tx_done;
        link.busy_s <- link.busy_s +. tx_time;
        Engine.schedule t.eng ~at:tx_done (fun () ->
            link.queue_bytes <- link.queue_bytes - pkt.size_bytes;
            link.bytes_sent <- link.bytes_sent + pkt.size_bytes);
        Engine.schedule t.eng ~at:(tx_done +. link.delay_s) (fun () ->
            pkt.hop <- pkt.hop + 1;
            forward t pkt)
      end
  end

let inject t pkt =
  if Array.length pkt.route < 1 then invalid_arg "Net.inject: empty route";
  pkt.injected_at <- Engine.now t.eng;
  let f = flow t pkt.flow_id in
  f.sent <- f.sent + 1;
  forward t pkt

type flow_stats = {
  sent : int;
  delivered : int;
  dropped : int;
  delay_sum_s : float;
  delay_max_s : float;
}

let freeze (f : mutable_flow_stats) =
  {
    sent = f.sent;
    delivered = f.delivered;
    dropped = f.dropped;
    delay_sum_s = f.delay_sum;
    delay_max_s = f.delay_max;
  }

let zero_stats =
  { sent = 0; delivered = 0; dropped = 0; delay_sum_s = 0.0; delay_max_s = 0.0 }

let flow_stats t id =
  match find_flow t id with Some f -> freeze f | None -> zero_stats

let all_flow_stats t = Hashtbl.fold (fun id f acc -> (id, freeze f) :: acc) t.flows []

let mean_delay_ms t =
  let sum = ref 0.0 and count = ref 0 in
  Hashtbl.iter
    (fun _ (f : mutable_flow_stats) ->
      sum := !sum +. f.delay_sum;
      count := !count + f.delivered)
    t.flows;
  if !count = 0 then 0.0 else !sum /. float_of_int !count *. 1000.0

let loss_rate t =
  let sent = ref 0 and dropped = ref 0 in
  Hashtbl.iter
    (fun _ (f : mutable_flow_stats) ->
      sent := !sent + f.sent;
      dropped := !dropped + f.dropped)
    t.flows;
  if !sent = 0 then 0.0 else float_of_int !dropped /. float_of_int !sent

type link_stats = { bytes_sent : int; drops : int; queue_peak_bytes : int; busy_s : float }

let link_stats t ~src ~dst =
  Option.map
    (fun (l : link) ->
      { bytes_sent = l.bytes_sent; drops = l.drops; queue_peak_bytes = l.queue_peak; busy_s = l.busy_s })
    (Hashtbl.find_opt t.links (key t src dst))

let queue_bytes t ~src ~dst =
  match Hashtbl.find_opt t.links (key t src dst) with None -> 0 | Some l -> l.queue_bytes

(* Per-link and per-flow counters flushed into telemetry at teardown —
   the FlowMonitor read-out of §5.  Totals are sums and samples are
   sorted on read-out, so hashtable iteration order does not show. *)
let flush_telemetry t =
  if Cisp_util.Telemetry.enabled () then begin
    Cisp_util.Telemetry.add "sim.links" (Hashtbl.length t.links);
    Hashtbl.iter
      (fun _ (l : link) ->
        Cisp_util.Telemetry.add "sim.link_drops" l.drops;
        Cisp_util.Telemetry.add "sim.link_bytes_sent" l.bytes_sent;
        Cisp_util.Telemetry.observe "sim.queue_peak_bytes" (float_of_int l.queue_peak);
        Cisp_util.Telemetry.observe "sim.link_busy_s" l.busy_s)
      t.links;
    Hashtbl.iter
      (fun _ (f : mutable_flow_stats) ->
        Cisp_util.Telemetry.add "sim.flow_sent" f.sent;
        Cisp_util.Telemetry.add "sim.flow_delivered" f.delivered;
        Cisp_util.Telemetry.add "sim.flow_dropped" f.dropped)
      t.flows
  end
