(* The radio: transmit power, gain per antenna, receiver sensitivity at
   the target BER, and connector/waveguide/alignment losses. *)
let tx_power_dbm = 30.0
let antenna_gain_dbi = 43.0
let rx_threshold_dbm = -72.0
let misc_losses_db = 3.0

let fspl_db ~f_ghz ~d_km =
  if not (f_ghz > 0.0 && d_km > 0.0) then
    invalid_arg "Link_budget.fspl_db: f_ghz and d_km must be positive";
  92.45 +. (20.0 *. log10 f_ghz) +. (20.0 *. log10 d_km)

let fade_margin_db ~f_ghz ~d_km =
  let rx =
    tx_power_dbm +. (2.0 *. antenna_gain_dbi) -. fspl_db ~f_ghz ~d_km -. misc_losses_db
  in
  rx -. rx_threshold_dbm
