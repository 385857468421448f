type t = {
  radio_1gbps_usd : float;
  new_tower_usd : float;
  tower_rent_usd_per_year : float;
  amortization_years : float;
}

let default =
  {
    radio_1gbps_usd = 150_000.0;
    new_tower_usd = 100_000.0;
    tower_rent_usd_per_year = 40_000.0;
    amortization_years = 5.0;
  }

let capex_usd t ~radios ~new_towers =
  (float_of_int radios *. t.radio_1gbps_usd) +. (float_of_int new_towers *. t.new_tower_usd)

let opex_usd t ~rented_towers =
  float_of_int rented_towers *. t.tower_rent_usd_per_year *. t.amortization_years

let total_usd t ~radios ~new_towers ~rented_towers =
  capex_usd t ~radios ~new_towers +. opex_usd t ~rented_towers

let cost_per_gb t ~total_usd ~aggregate_gbps =
  let seconds = t.amortization_years *. Cisp_util.Units.seconds_per_year in
  let gb = Cisp_util.Units.gb_of_gbps_over aggregate_gbps ~seconds in
  if gb <= 0.0 then infinity else total_usd /. gb
