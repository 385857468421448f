type range = { low : float; high : float }

let gb_per_year_of_gbps gbps = gbps /. 8.0 *. Cisp_util.Units.seconds_per_year

(* ---------- Web search ---------- *)

(* US search traffic, and the yearly profit gained from a 200 ms and a
   400 ms speedup. *)
let us_search_traffic_gbps = 12.0
let profit_gain_200ms_usd = 87e6
let profit_gain_400ms_usd = 177e6

let search_value_per_gb ~speedup_ms =
  if speedup_ms < 0.0 then invalid_arg "Econ.search_value_per_gb: negative speedup_ms";
  let gain =
    if speedup_ms <= 200.0 then profit_gain_200ms_usd *. speedup_ms /. 200.0
    else begin
      let slope = (profit_gain_400ms_usd -. profit_gain_200ms_usd) /. 200.0 in
      profit_gain_200ms_usd +. (slope *. (speedup_ms -. 200.0))
    end
  in
  gain /. gb_per_year_of_gbps us_search_traffic_gbps

(* ---------- E-commerce ---------- *)

(* Yearly traffic and profit, the conversion gain per 100 ms, and the
   share of bytes that ride cISP. *)
let yearly_traffic_pb = 483.0
let yearly_profit_usd = 7.9e9
let conversion_per_100ms = { low = 0.01; high = 0.07 }
let cisp_byte_fraction = 0.10

let ecommerce_value_per_gb ~speedup_ms =
  let cisp_gb = yearly_traffic_pb *. 1e6 *. cisp_byte_fraction in
  let value sens = yearly_profit_usd *. sens *. (speedup_ms /. 100.0) /. cisp_gb in
  { low = value conversion_per_100ms.low; high = value conversion_per_100ms.high }

(* ---------- Gaming ---------- *)

(* An accelerated VPN's monthly price, a full-time gamer's hours a day,
   and a player's traffic. *)
let vpn_usd_per_month = 4.0
let hours_per_day = 8.0
let kbps_per_player = 10.0

let gaming_value_per_gb () =
  (* GB consumed per month at the given duty cycle. *)
  let seconds = hours_per_day *. 3600.0 *. 30.0 in
  let gb = kbps_per_player *. 1e3 /. 8.0 *. seconds /. 1e9 in
  vpn_usd_per_month /. gb

let steam_us_aggregate_gbps ~players ~us_share ~kbps_per_player =
  float_of_int players *. us_share *. kbps_per_player *. 1e3 /. 1e9

(* ---------- Summary ---------- *)

type verdict = { application : string; value_per_gb : range; exceeds_cost : bool }

let summary ~cost_per_gb =
  let search200 = search_value_per_gb ~speedup_ms:200.0 in
  let search400 = search_value_per_gb ~speedup_ms:400.0 in
  let ecommerce = ecommerce_value_per_gb ~speedup_ms:200.0 in
  let gaming = gaming_value_per_gb () in
  let v application value_per_gb =
    { application; value_per_gb; exceeds_cost = value_per_gb.low > cost_per_gb }
  in
  [
    v "web search" { low = search200; high = search400 };
    v "e-commerce" ecommerce;
    v "gaming" { low = gaming; high = gaming };
  ]
