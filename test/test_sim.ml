open Cisp_sim

let check_float eps = Alcotest.(check (float eps))

(* ---------- Engine ---------- *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:3.0 (fun () -> log := 3 :: !log);
  Engine.schedule eng ~at:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule eng ~at:2.0 (fun () -> log := 2 :: !log);
  Engine.run eng ~until:10.0;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_float 1e-12 "clock advances to until" 10.0 (Engine.now eng);
  Alcotest.(check int) "events" 3 (Engine.events_processed eng)

let test_engine_until () =
  let eng = Engine.create () in
  let fired = ref false in
  Engine.schedule eng ~at:5.0 (fun () -> fired := true);
  Engine.run eng ~until:4.0;
  Alcotest.(check bool) "not yet" false !fired;
  Engine.run eng ~until:6.0;
  Alcotest.(check bool) "now fired" true !fired

let test_engine_cascade () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      Engine.schedule_in eng ~after:1.0 (fun () ->
          incr count;
          chain (n - 1))
  in
  chain 5;
  Engine.run eng ~until:100.0;
  Alcotest.(check int) "cascaded events" 5 !count

(* Equal timestamps: 2,000 events on a 50-slot grid, where every 7th
   schedules a child at the current time and every 11th one at the
   next slot, from inside its own run.  Which of the tied events runs
   first is fixed only by the queue's sift code; the digest of the
   execution order pins it. *)
let test_engine_tie_order () =
  let eng = Engine.create () in
  let rng = Cisp_util.Rng.create 17 in
  let log = Buffer.create 16_384 in
  let record id = Buffer.add_string log (string_of_int id ^ ",") in
  let next_id = ref 2_000 in
  let child ~after =
    let id = !next_id in
    incr next_id;
    Engine.schedule_in eng ~after (fun () -> record id)
  in
  for id = 0 to 1_999 do
    let at = 0.25 *. float_of_int (Cisp_util.Rng.int rng 50) in
    Engine.schedule eng ~at (fun () ->
        record id;
        if id mod 7 = 0 then child ~after:0.0;
        if id mod 11 = 0 then child ~after:0.25)
  done;
  Engine.run eng ~until:100.0;
  Alcotest.(check int) "events" (2_000 + 286 + 182) (Engine.events_processed eng);
  Alcotest.(check string) "execution order" "78a191431a65b4fff48161f2425e28ae"
    (Digest.to_hex (Digest.string (Buffer.contents log)))

(* ---------- Net ---------- *)

let mk_pkt ?(flow = 1) ?(size = 1000) route =
  { Net.flow_id = flow; size_bytes = size; route; hop = 0; injected_at = 0.0; payload = 0 }

let test_net_delivery_delay () =
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:2 in
  (* 1 Gbps, 10 ms: 1000 B takes 8 us tx + 10 ms prop. *)
  Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:10.0 ~buffer_bytes:1_000_000;
  Net.inject net (mk_pkt [| 0; 1 |]);
  Engine.run eng ~until:1.0;
  let s = Net.flow_stats net 1 in
  Alcotest.(check int) "delivered" 1 s.Net.delivered;
  check_float 1e-6 "delay = tx + prop" (0.010008 *. 1000.0) (Net.mean_delay_ms net)

let test_net_multihop () =
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:3 in
  Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:5.0 ~buffer_bytes:1_000_000;
  Net.add_duplex net 1 2 ~gbps:1.0 ~delay_ms:5.0 ~buffer_bytes:1_000_000;
  Net.inject net (mk_pkt [| 0; 1; 2 |]);
  Engine.run eng ~until:1.0;
  check_float 1e-4 "two hops" (10.016) (Net.mean_delay_ms net)

let test_net_queueing_delay () =
  (* Two packets back to back: the second waits one serialization time. *)
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:2 in
  Net.add_duplex net 0 1 ~gbps:0.001 ~delay_ms:0.0 ~buffer_bytes:1_000_000;
  (* 1 Mbps: 1000 B = 8 ms serialization *)
  Net.inject net (mk_pkt ~flow:1 [| 0; 1 |]);
  Net.inject net (mk_pkt ~flow:2 [| 0; 1 |]);
  Engine.run eng ~until:1.0;
  let s1 = Net.flow_stats net 1 and s2 = Net.flow_stats net 2 in
  check_float 1e-6 "first 8ms" 0.008 s1.Net.delay_sum_s;
  check_float 1e-6 "second 16ms" 0.016 s2.Net.delay_sum_s

let test_net_drop_when_full () =
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:2 in
  (* Buffer fits exactly one packet. *)
  Net.add_duplex net 0 1 ~gbps:0.001 ~delay_ms:0.0 ~buffer_bytes:1000;
  Net.inject net (mk_pkt ~flow:1 [| 0; 1 |]);
  Net.inject net (mk_pkt ~flow:2 [| 0; 1 |]);
  Engine.run eng ~until:1.0;
  Alcotest.(check int) "second dropped" 1 (Net.flow_stats net 2).Net.dropped;
  Alcotest.(check bool) "loss rate" true (Net.loss_rate net = 0.5);
  match Net.link_stats net ~src:0 ~dst:1 with
  | Some ls -> Alcotest.(check int) "link drop counter" 1 ls.Net.drops
  | None -> Alcotest.fail "link exists"

let test_net_broken_route () =
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:3 in
  Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:1.0 ~buffer_bytes:1_000_000;
  Net.inject net (mk_pkt [| 0; 2 |]);
  Engine.run eng ~until:1.0;
  Alcotest.(check int) "dropped" 1 (Net.flow_stats net 1).Net.dropped

let test_net_stats_read_only () =
  (* Reading stats for an id no packet ever used must not create a
     flow record (the old get-or-create path polluted the table). *)
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:2 in
  Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:1.0 ~buffer_bytes:1_000_000;
  Net.inject net (mk_pkt ~flow:1 [| 0; 1 |]);
  Engine.run eng ~until:1.0;
  let ghost = Net.flow_stats net 999 in
  Alcotest.(check int) "ghost flow reads zero" 0 ghost.Net.sent;
  Alcotest.(check int) "table still holds only the real flow" 1
    (List.length (Net.all_flow_stats net));
  Alcotest.(check int) "real flow still readable" 1 (Net.flow_stats net 1).Net.sent

let test_net_utilization () =
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:2 in
  Net.add_duplex net 0 1 ~gbps:0.001 ~delay_ms:0.0 ~buffer_bytes:1_000_000;
  (* 5 packets x 8 ms = 40 ms busy *)
  for i = 1 to 5 do
    Net.inject net (mk_pkt ~flow:i [| 0; 1 |])
  done;
  Engine.run eng ~until:1.0;
  match Net.link_stats net ~src:0 ~dst:1 with
  | Some l -> check_float 1e-6 "busy time" 0.04 l.Net.busy_s
  | None -> Alcotest.fail "link missing"

let test_net_delivery_per_flow () =
  (* A delivery runs its own flow's handler and no other; a flow with
     no handler is still delivered and counted. *)
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:2 in
  Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:1.0 ~buffer_bytes:1_000_000;
  let seen = Array.make 3 0 in
  List.iter
    (fun id ->
      Net.on_delivery net ~flow_id:id (fun pkt _ -> seen.(id) <- seen.(id) + pkt.Net.flow_id))
    [ 1; 2 ];
  List.iter (fun id -> Net.inject net (mk_pkt ~flow:id [| 0; 1 |])) [ 1; 1; 1; 2; 0 ];
  Engine.run eng ~until:1.0;
  Alcotest.(check (array int)) "handler calls per flow" [| 0; 3; 2 |] seen;
  Alcotest.(check int) "unhandled flow delivered" 1 (Net.flow_stats net 0).Net.delivered

let test_net_delivery_handler_unique () =
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:2 in
  Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:1.0 ~buffer_bytes:max_int;
  Net.on_delivery net ~flow_id:4 (fun _ _ -> ());
  Alcotest.check_raises "second handler rejected"
    (Invalid_argument "Net.on_delivery: flow 4 already has a handler") (fun () ->
      Net.on_delivery net ~flow_id:4 (fun _ _ -> ()));
  Net.clear_delivery net ~flow_id:4;
  Net.on_delivery net ~flow_id:4 (fun _ _ -> ());
  (* A finished TCP flow drops its handler, so its id is free again. *)
  let completed = ref false in
  Tcp.start_flow net (Tcp.default_config ~ack_delay_s:0.001) ~flow_id:5 ~route:[| 0; 1 |]
    ~size_bytes:15_000 ~at:0.0 ~on_complete:(fun _ -> completed := true);
  Engine.run eng ~until:5.0;
  Alcotest.(check bool) "flow completed" true !completed;
  Net.on_delivery net ~flow_id:5 (fun _ _ -> ())

let test_net_flush_telemetry () =
  (* With telemetry enabled, teardown flushes link/flow totals; the
     sim's own results are unaffected. *)
  Cisp_util.Telemetry.reset ();
  Fun.protect ~finally:Cisp_util.Telemetry.reset (fun () ->
      Cisp_util.Telemetry.enable_metrics ();
      let eng = Engine.create () in
      let net = Net.create eng ~n_nodes:2 in
      Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:1.0 ~buffer_bytes:1_000_000;
      Net.inject net (mk_pkt ~flow:1 [| 0; 1 |]);
      Engine.run eng ~until:1.0;
      Net.flush_telemetry net;
      Alcotest.(check bool) "events counted" true (Cisp_util.Telemetry.counter "sim.events" > 0);
      Alcotest.(check int) "links flushed (duplex = 2 directed)" 2
        (Cisp_util.Telemetry.counter "sim.links");
      Alcotest.(check int) "flow sends flushed" 1 (Cisp_util.Telemetry.counter "sim.flow_sent");
      Alcotest.(check int) "flow deliveries flushed" 1
        (Cisp_util.Telemetry.counter "sim.flow_delivered"))

(* ---------- Udp ---------- *)

let test_udp_rate () =
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:2 in
  Net.add_duplex net 0 1 ~gbps:10.0 ~delay_ms:1.0 ~buffer_bytes:10_000_000;
  let demands = [| [| 0.0; 0.1 |]; [| 0.0; 0.0 |] |] in
  let paths = Hashtbl.create 1 in
  Hashtbl.replace paths (0, 1) [| 0; 1 |];
  Udp.poisson_commodities net ~paths ~demands_gbps:demands ~packet_bytes:500 ~start:0.0 ~stop:0.1;
  Engine.run eng ~until:0.5;
  (* 0.1 Gbps for 0.1 s at 500 B = 2500 packets expected *)
  let s = Net.flow_stats net (Udp.flow_id ~src:0 ~dst:1 ~n:2) in
  Alcotest.(check bool)
    (Printf.sprintf "poisson count %d ~ 2500" s.Net.sent)
    true
    (s.Net.sent > 2200 && s.Net.sent < 2800);
  Alcotest.(check int) "all delivered" s.Net.sent s.Net.delivered

(* ---------- Tcp ---------- *)

let test_tcp_completes () =
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:3 in
  Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:2.0 ~buffer_bytes:max_int;
  Net.add_duplex net 1 2 ~gbps:0.1 ~delay_ms:2.0 ~buffer_bytes:max_int;
  let fct = ref None in
  Tcp.start_flow net (Tcp.default_config ~ack_delay_s:0.004) ~flow_id:7 ~route:[| 0; 1; 2 |]
    ~size_bytes:100_000 ~at:0.0 ~on_complete:(fun t -> fct := Some t);
  Engine.run eng ~until:30.0;
  match !fct with
  | None -> Alcotest.fail "flow never completed"
  | Some t ->
    (* 100 KB over a 100 Mbps bottleneck is at least 8 ms of pure
       serialization plus slow-start round trips. *)
    Alcotest.(check bool) (Printf.sprintf "fct %.3f sensible" t) true (t > 0.008 && t < 5.0)

let test_tcp_pacing_smaller_bursts () =
  let queue_peak ~pacing =
    let eng = Engine.create () in
    let net = Net.create eng ~n_nodes:3 in
    Net.add_duplex net 0 1 ~gbps:10.0 ~delay_ms:2.0 ~buffer_bytes:max_int;
    Net.add_duplex net 1 2 ~gbps:0.1 ~delay_ms:2.0 ~buffer_bytes:max_int;
    let cfg = { (Tcp.default_config ~ack_delay_s:0.004) with Tcp.pacing } in
    Tcp.start_flow net cfg ~flow_id:7 ~route:[| 0; 1; 2 |] ~size_bytes:200_000 ~at:0.0
      ~on_complete:(fun _ -> ());
    Engine.run eng ~until:30.0;
    match Net.link_stats net ~src:1 ~dst:2 with
    | Some ls -> ls.Net.queue_peak_bytes
    | None -> 0
  in
  let unpaced = queue_peak ~pacing:false in
  let paced = queue_peak ~pacing:true in
  Alcotest.(check bool)
    (Printf.sprintf "paced peak %d < unpaced %d" paced unpaced)
    true (paced < unpaced)

let test_tcp_faster_on_faster_path () =
  let fct ~gbps =
    let eng = Engine.create () in
    let net = Net.create eng ~n_nodes:2 in
    Net.add_duplex net 0 1 ~gbps ~delay_ms:5.0 ~buffer_bytes:max_int;
    let out = ref 0.0 in
    Tcp.start_flow net (Tcp.default_config ~ack_delay_s:0.005) ~flow_id:1 ~route:[| 0; 1 |]
      ~size_bytes:500_000 ~at:0.0 ~on_complete:(fun t -> out := t);
    Engine.run eng ~until:60.0;
    !out
  in
  Alcotest.(check bool) "1G faster than 10M" true (fct ~gbps:1.0 < fct ~gbps:0.01)

(* A short Fig 6 run: ten 10 Gbps senders start 100 KB flows through
   node M into a 100 Mbps bottleneck, Poisson arrivals at 70% load for
   1 s.  Returns the MD5 over every flow completion time and the
   bottleneck queue sampled each millisecond, in event order, floats by
   their bits; with the queue samples (bytes) and the FCTs (s). *)
let fig6_run ~pacing =
  let n_src = 10 in
  let m = n_src and d = n_src + 1 in
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:(n_src + 2) in
  for s = 0 to n_src - 1 do
    Net.add_duplex net s m ~gbps:10.0 ~delay_ms:5.0 ~buffer_bytes:max_int
  done;
  Net.add_duplex net m d ~gbps:0.1 ~delay_ms:5.0 ~buffer_bytes:max_int;
  let rng = Cisp_util.Rng.create 977 in
  let rate = 0.7 *. 0.1e9 /. (100_000.0 *. 8.0) in
  let duration = 1.0 in
  let b = Buffer.create 8192 in
  let queue = ref [] and fcts = ref [] in
  let next_id = ref 1000 in
  let rec arrivals t =
    if t < duration then begin
      Engine.schedule eng ~at:t (fun () ->
          let s = Cisp_util.Rng.int rng n_src in
          incr next_id;
          let start = Engine.now eng in
          let cfg = { (Tcp.default_config ~ack_delay_s:0.010) with Tcp.pacing } in
          Tcp.start_flow net cfg ~flow_id:!next_id ~route:[| s; m; d |] ~size_bytes:100_000
            ~at:start ~on_complete:(fun finish ->
              fcts := (finish -. start) :: !fcts;
              Printf.bprintf b "fct %Ld\n" (Int64.bits_of_float (finish -. start))));
      arrivals (t +. Cisp_util.Rng.exponential rng rate)
    end
  in
  arrivals (Cisp_util.Rng.exponential rng rate);
  let rec sampler t =
    if t < duration then
      Engine.schedule eng ~at:t (fun () ->
          let q = Net.queue_bytes net ~src:m ~dst:d in
          queue := float_of_int q :: !queue;
          Printf.bprintf b "q %d\n" q;
          sampler (t +. 0.001))
  in
  sampler 0.001;
  Engine.run eng ~until:(duration +. 2.0);
  ( Digest.to_hex (Digest.string (Buffer.contents b)),
    Array.of_list !queue,
    Array.of_list !fcts )

(* The digests pin the run; the claim is the paper's Fig 6: pacing
   cuts the median bottleneck queue while the median flow completion
   time moves by less than 5%. *)
let test_tcp_fig6_golden () =
  let digest, queue, fcts = fig6_run ~pacing:false in
  let paced_digest, paced_queue, paced_fcts = fig6_run ~pacing:true in
  Alcotest.(check string) "unpaced" "2cb054bddfb09f826045557c40b0450f" digest;
  Alcotest.(check string) "paced" "d4e6ad1981d30f28c328b4783f2216c1" paced_digest;
  let median = Cisp_util.Stats.median in
  let q = median queue and paced_q = median paced_queue in
  Alcotest.(check bool)
    (Printf.sprintf "paced median queue %.0f B < unpaced %.0f B" paced_q q)
    true (paced_q < q);
  let fct = median fcts and paced_fct = median paced_fcts in
  Alcotest.(check bool)
    (Printf.sprintf "median FCT %.1f -> %.1f ms moves < 5%%" (fct *. 1e3) (paced_fct *. 1e3))
    true
    (Float.abs (paced_fct -. fct) < 0.05 *. fct)

(* ---------- Routing ---------- *)

let routing_fixture () =
  let sites =
    Array.init 4 (fun i ->
        let c =
          Cisp_geo.Geodesy.destination
            (Cisp_geo.Coord.make ~lat:39.0 ~lon:(-95.0))
            ~bearing_deg:(float_of_int i *. 90.0) ~distance_km:400.0
        in
        Cisp_data.City.make (Printf.sprintf "R%d" i) ~lat:(Cisp_geo.Coord.lat c)
          ~lon:(Cisp_geo.Coord.lon c) ~population:((i + 1) * 100_000))
  in
  let inputs =
    Cisp_design.Inputs.synthetic ~sites ~mw_stretch:1.02 ~mw_cost_per_km:0.02
      ~fiber_stretch:1.9
      ~traffic:(Cisp_traffic.Matrix.population_product sites)
  in
  let topo = Cisp_design.Topology.of_links inputs [ (0, 1); (1, 2); (0, 2) ] in
  { Routing.inputs; topology = topo; mw_gbps = (fun _ -> 1.0); fiber_gbps = 100.0 }

let test_routing_shortest_uses_mw () =
  let model = routing_fixture () in
  let demands = Cisp_traffic.Matrix.scale_to_gbps model.Routing.inputs.Cisp_design.Inputs.traffic ~aggregate_gbps:1.0 in
  let paths = Routing.paths model Routing.Shortest_path ~demands_gbps:demands in
  Alcotest.(check bool) "has paths" true (Hashtbl.length paths > 0);
  (* Every path starts at its source and ends at its destination. *)
  Hashtbl.iter
    (fun (s, t) route ->
      Alcotest.(check int) "starts at s" s route.(0);
      Alcotest.(check int) "ends at t" t route.(Array.length route - 1))
    paths

let test_routing_alternatives_not_faster () =
  let model = routing_fixture () in
  let demands = Cisp_traffic.Matrix.scale_to_gbps model.Routing.inputs.Cisp_design.Inputs.traffic ~aggregate_gbps:3.0 in
  let lat scheme =
    let paths = Routing.paths model scheme ~demands_gbps:demands in
    Routing.mean_route_latency_ms model paths ~demands_gbps:demands
  in
  let sp = lat Routing.Shortest_path in
  Alcotest.(check bool) "min-max >= shortest" true (lat Routing.Min_max_utilization >= sp -. 1e-9);
  Alcotest.(check bool) "throughput-opt >= shortest" true (lat Routing.Throughput_optimal >= sp -. 1e-9)

let test_routing_zero_demand_no_paths () =
  let model = routing_fixture () in
  let n = Cisp_design.Inputs.n_sites model.Routing.inputs in
  let demands = Array.make_matrix n n 0.0 in
  List.iter
    (fun scheme ->
      Alcotest.(check int) "no commodities, no routes" 0
        (Hashtbl.length (Routing.paths model scheme ~demands_gbps:demands)))
    [ Routing.Shortest_path; Routing.Min_max_utilization; Routing.Throughput_optimal ]

let test_routing_all_commodities_covered () =
  let model = routing_fixture () in
  let demands =
    Cisp_traffic.Matrix.scale_to_gbps model.Routing.inputs.Cisp_design.Inputs.traffic
      ~aggregate_gbps:2.0
  in
  (* 4 sites, all-pairs positive demand: 12 ordered commodities, under
     every scheme. *)
  List.iter
    (fun scheme ->
      Alcotest.(check int) "route per ordered pair" 12
        (Hashtbl.length (Routing.paths model scheme ~demands_gbps:demands)))
    [ Routing.Shortest_path; Routing.Min_max_utilization; Routing.Throughput_optimal ]

let test_routing_link_removal_reroutes () =
  (* Rewiring: taking the direct (0,2) MW link out of the topology
     must still route the (0,2) commodity — over the remaining MW
     links or the fiber mesh — and can only cost latency. *)
  let full = routing_fixture () in
  let degraded =
    { full with
      Routing.topology =
        Cisp_design.Topology.of_links full.Routing.inputs [ (0, 1); (1, 2) ] }
  in
  let demands =
    Cisp_traffic.Matrix.scale_to_gbps full.Routing.inputs.Cisp_design.Inputs.traffic
      ~aggregate_gbps:1.0
  in
  let paths_of m = Routing.paths m Routing.Shortest_path ~demands_gbps:demands in
  let p_full = paths_of full and p_deg = paths_of degraded in
  Alcotest.(check bool) "commodity (0,2) still routed" true (Hashtbl.mem p_deg (0, 2));
  let lat m p = Routing.mean_route_latency_ms m p ~demands_gbps:demands in
  Alcotest.(check bool) "rewiring never gains latency" true
    (lat degraded p_deg >= lat full p_full -. 1e-9)

(* ---------- Builder ---------- *)

let test_builder_end_to_end () =
  let model = routing_fixture () in
  let inputs = model.Routing.inputs and topo = model.Routing.topology in
  let eng = Engine.create () in
  let net = Builder.build eng inputs topo ~mw_gbps:(fun _ -> 1.0) in
  let demands = Cisp_traffic.Matrix.scale_to_gbps inputs.Cisp_design.Inputs.traffic ~aggregate_gbps:0.5 in
  let paths = Routing.paths model Routing.Shortest_path ~demands_gbps:demands in
  Udp.poisson_commodities net ~paths ~demands_gbps:demands ~packet_bytes:500 ~start:0.0 ~stop:0.01;
  Engine.run eng ~until:0.5;
  Alcotest.(check bool) "packets flowed" true (Net.mean_delay_ms net > 0.0);
  Alcotest.(check (float 1e-9)) "no loss at low load" 0.0 (Net.loss_rate net)

let test_builder_capacity_function () =
  let model = routing_fixture () in
  let plan = Cisp_design.Capacity.plan model.Routing.inputs model.Routing.topology ~aggregate_gbps:10.0 in
  let f = Builder.provisioned_mw_gbps plan in
  List.iter
    (fun lp ->
      Alcotest.(check (float 1e-9)) "k^2 capacity"
        (Cisp_rf.Capacity.gbps_of_series lp.Cisp_design.Capacity.series)
        (f lp.Cisp_design.Capacity.link))
    plan.Cisp_design.Capacity.links

let suites =
  [
    ( "sim.engine",
      [
        Alcotest.test_case "event order" `Quick test_engine_order;
        Alcotest.test_case "until" `Quick test_engine_until;
        Alcotest.test_case "cascade" `Quick test_engine_cascade;
        Alcotest.test_case "tie order" `Quick test_engine_tie_order;
      ] );
    ( "sim.net",
      [
        Alcotest.test_case "delivery delay" `Quick test_net_delivery_delay;
        Alcotest.test_case "multihop" `Quick test_net_multihop;
        Alcotest.test_case "queueing delay" `Quick test_net_queueing_delay;
        Alcotest.test_case "drop when full" `Quick test_net_drop_when_full;
        Alcotest.test_case "broken route" `Quick test_net_broken_route;
        Alcotest.test_case "stats are read-only" `Quick test_net_stats_read_only;
        Alcotest.test_case "utilization" `Quick test_net_utilization;
        Alcotest.test_case "telemetry flush" `Quick test_net_flush_telemetry;
        Alcotest.test_case "delivery runs its own flow's handler" `Quick test_net_delivery_per_flow;
        Alcotest.test_case "one delivery handler per flow" `Quick test_net_delivery_handler_unique;
      ] );
    ("sim.udp", [ Alcotest.test_case "poisson rate" `Quick test_udp_rate ]);
    ( "sim.tcp",
      [
        Alcotest.test_case "completes" `Quick test_tcp_completes;
        Alcotest.test_case "pacing smaller bursts" `Quick test_tcp_pacing_smaller_bursts;
        Alcotest.test_case "bandwidth sensitivity" `Quick test_tcp_faster_on_faster_path;
        Alcotest.test_case "fig 6 golden" `Quick test_tcp_fig6_golden;
      ] );
    ( "sim.routing",
      [
        Alcotest.test_case "shortest path endpoints" `Quick test_routing_shortest_uses_mw;
        Alcotest.test_case "alternatives not faster" `Quick test_routing_alternatives_not_faster;
        Alcotest.test_case "zero demand" `Quick test_routing_zero_demand_no_paths;
        Alcotest.test_case "all commodities covered" `Quick test_routing_all_commodities_covered;
        Alcotest.test_case "link removal reroutes" `Quick test_routing_link_removal_reroutes;
      ] );
    ( "sim.builder",
      [
        Alcotest.test_case "end to end" `Quick test_builder_end_to_end;
        Alcotest.test_case "capacity function" `Quick test_builder_capacity_function;
      ] );
  ]

(* ---------- TCP loss recovery & media ---------- *)

let test_tcp_recovers_from_drops () =
  (* A buffer that can hold only 3 packets forces drops during slow
     start; the flow must still complete via timeout recovery. *)
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:3 in
  Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:2.0 ~buffer_bytes:max_int;
  Net.add_duplex net 1 2 ~gbps:0.01 ~delay_ms:2.0 ~buffer_bytes:4500;
  let fct = ref None in
  Tcp.start_flow net (Tcp.default_config ~ack_delay_s:0.004) ~flow_id:9 ~route:[| 0; 1; 2 |]
    ~size_bytes:60_000 ~at:0.0 ~on_complete:(fun t -> fct := Some t);
  Engine.run eng ~until:120.0;
  (match Net.link_stats net ~src:1 ~dst:2 with
  | Some ls -> Alcotest.(check bool) "drops happened" true (ls.Net.drops > 0)
  | None -> Alcotest.fail "link missing");
  match !fct with
  | Some t -> Alcotest.(check bool) "completed despite drops" true (t > 0.0)
  | None -> Alcotest.fail "flow wedged after drops"

let test_tcp_no_spurious_retransmit () =
  (* Lossless path: the watchdog must not interfere; bytes on the wire
     equal the transfer size. *)
  let eng = Engine.create () in
  let net = Net.create eng ~n_nodes:2 in
  Net.add_duplex net 0 1 ~gbps:1.0 ~delay_ms:2.0 ~buffer_bytes:max_int;
  Tcp.start_flow net (Tcp.default_config ~ack_delay_s:0.004) ~flow_id:3 ~route:[| 0; 1 |]
    ~size_bytes:150_000 ~at:0.0 ~on_complete:(fun _ -> ());
  Engine.run eng ~until:30.0;
  let s = Net.flow_stats net 3 in
  Alcotest.(check int) "exactly the packets needed" 100 s.Net.sent

let suites =
  suites
  @ [
      ( "sim.tcp_recovery",
        [
          Alcotest.test_case "recovers from drops" `Quick test_tcp_recovers_from_drops;
          Alcotest.test_case "no spurious retransmits" `Quick test_tcp_no_spurious_retransmit;
        ] );
    ]

(* ---------- Multipath, failover and scheme guarantees ---------- *)

let fixture_demands model gbps =
  Cisp_traffic.Matrix.scale_to_gbps model.Routing.inputs.Cisp_design.Inputs.traffic
    ~aggregate_gbps:gbps

(* Regression: the greedy schemes iterate commodities in demand order;
   a zero-demand ordered pair must never be assigned a route. *)
let test_minmax_skips_zero_demand_commodity () =
  let model = routing_fixture () in
  let demands = fixture_demands model 2.0 in
  demands.(0).(3) <- 0.0;
  let table = Routing.paths model Routing.Min_max_utilization ~demands_gbps:demands in
  Alcotest.(check bool) "zero-demand (0,3) unrouted" false (Hashtbl.mem table (0, 3));
  Alcotest.(check bool) "(3,0) still routed" true (Hashtbl.mem table (3, 0));
  Alcotest.(check int) "11 routed commodities" 11 (Hashtbl.length table)

let test_multipath_table_structure () =
  let model = routing_fixture () in
  let demands = fixture_demands model 2.0 in
  let table = Routing.multipath_table model ~k:3 ~demands_gbps:demands in
  Alcotest.(check int) "all 12 commodities" 12 (Hashtbl.length table);
  Hashtbl.iter
    (fun (s, t) mp ->
      let k = Array.length mp.Routing.routes in
      Alcotest.(check bool) "1..3 routes" true (k >= 1 && k <= 3);
      Alcotest.(check int) "split per route" k (Array.length mp.Routing.split);
      check_float 1e-9 "split sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 mp.Routing.split);
      let p = mp.Routing.routes.(0) in
      Alcotest.(check int) "starts at s" s p.Routing.nodes.(0);
      Alcotest.(check int) "ends at t" t p.Routing.nodes.(Array.length p.Routing.nodes - 1);
      check_float 1e-6 "primary latency consistent" p.Routing.latency_km
        (Routing.route_latency_km model p.Routing.nodes);
      Array.iter
        (fun q ->
          Alcotest.(check bool) "primary is the shortest route" true
            (q.Routing.latency_km >= p.Routing.latency_km -. 1e-9))
        mp.Routing.routes)
    table

let test_multipath_invalid_k () =
  let model = routing_fixture () in
  let demands = fixture_demands model 1.0 in
  Alcotest.check_raises "k = 0 rejected" (Invalid_argument "Routing.multipath_table: k <= 0")
    (fun () -> ignore (Routing.multipath_table model ~k:0 ~demands_gbps:demands));
  let mp = Hashtbl.find (Routing.multipath_table model ~k:2 ~demands_gbps:demands) (0, 2) in
  Alcotest.check_raises "single-path scheme rejected"
    (Invalid_argument "Routing.select_routes: not a k-disjoint scheme") (fun () ->
      ignore (Routing.select_routes Routing.Shortest_path mp ~up:model.Routing.topology))

let route_respects ~up (p : Routing.mp_path) =
  let ok = ref true in
  Array.iteri
    (fun h medium ->
      match medium with
      | Routing.Mw ->
        if not (Cisp_design.Topology.is_built up p.Routing.nodes.(h) p.Routing.nodes.(h + 1))
        then ok := false
      | Routing.Fiber -> ())
    p.Routing.media;
  !ok

let test_failover_activates_backup () =
  let model = routing_fixture () in
  let demands = fixture_demands model 2.0 in
  let table = Routing.multipath_table model ~k:3 ~demands_gbps:demands in
  let mp = Hashtbl.find table (0, 2) in
  Alcotest.(check bool) "has a backup" true (Array.length mp.Routing.routes >= 2);
  let failover = Routing.K_disjoint_failover 3 in
  (* Fair weather: the primary carries the commodity. *)
  (match Routing.select_routes failover mp ~up:model.Routing.topology with
  | [||] -> Alcotest.fail "no route in fair weather"
  | sel ->
    let p, w = sel.(0) in
    check_float 1e-9 "primary weight 1" 1.0 w;
    check_float 1e-9 "primary route" mp.Routing.routes.(0).Routing.latency_km p.Routing.latency_km);
  (* Kill one MW hop of the primary: the first surviving backup takes
     the full load, without touching the table. *)
  let prim = mp.Routing.routes.(0) in
  let dead = ref None in
  Array.iteri
    (fun h medium ->
      match medium with
      | Routing.Mw -> if !dead = None then dead := Some (prim.Routing.nodes.(h), prim.Routing.nodes.(h + 1))
      | Routing.Fiber -> ())
    prim.Routing.media;
  match !dead with
  | None -> Alcotest.fail "primary uses no MW hop"
  | Some (a, b) ->
    let up = Cisp_design.Topology.remove model.Routing.topology (a, b) in
    let sel = Routing.select_routes failover mp ~up in
    Alcotest.(check bool) "a backup survives" true (Array.length sel > 0);
    Array.iter
      (fun (p, _) ->
        Alcotest.(check bool) "survivor avoids the dead link" true (route_respects ~up p))
      sel;
    check_float 1e-9 "full mass on first survivor" 1.0 (snd sel.(0))

let test_split_renormalizes_over_survivors () =
  let model = routing_fixture () in
  let demands = fixture_demands model 2.0 in
  let table = Routing.multipath_table model ~k:3 ~demands_gbps:demands in
  let mp = Hashtbl.find table (0, 2) in
  Alcotest.(check bool) "multiple routes" true (Array.length mp.Routing.routes >= 2);
  (* All MW down: only pure-fiber routes survive, weights renormalized. *)
  let sel =
    Routing.select_routes (Routing.K_disjoint_split 3) mp
      ~up:(Cisp_design.Topology.empty model.Routing.inputs)
  in
  Array.iter
    (fun ((p : Routing.mp_path), _) ->
      Alcotest.(check bool) "survivors are pure fiber" true
        (Array.for_all (fun m -> match m with Routing.Fiber -> true | Routing.Mw -> false)
           p.Routing.media))
    sel;
  if Array.length sel > 0 then
    check_float 1e-9 "weights renormalized" 1.0
      (Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 sel)

let test_multipath_failover_latency_matches_shortest () =
  let model = routing_fixture () in
  let demands = fixture_demands model 2.0 in
  let failover = Routing.multipath_table model ~k:2 ~demands_gbps:demands in
  let sp = Routing.paths model Routing.Shortest_path ~demands_gbps:demands in
  Hashtbl.iter
    (fun key mp ->
      check_float 1e-6 "failover fair-weather latency = shortest-path"
        (Routing.route_latency_km model (Hashtbl.find sp key))
        mp.Routing.routes.(0).Routing.latency_km)
    failover

let suites =
  suites
  @ [
      ( "sim.multipath",
        [
          Alcotest.test_case "min-max skips zero demand" `Quick
            test_minmax_skips_zero_demand_commodity;
          Alcotest.test_case "table structure" `Quick test_multipath_table_structure;
          Alcotest.test_case "invalid k" `Quick test_multipath_invalid_k;
          Alcotest.test_case "failover activates backup" `Quick test_failover_activates_backup;
          Alcotest.test_case "split renormalizes" `Quick test_split_renormalizes_over_survivors;
          Alcotest.test_case "failover latency = shortest" `Quick
            test_multipath_failover_latency_matches_shortest;
        ] );
    ]
