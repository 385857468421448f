let hop_gbps = 1.0

let qam_bits_per_symbol m =
  if m < 4 then invalid_arg "qam_bits_per_symbol: m < 4";
  let rec log2 acc n =
    if n = 1 then acc
    else if n land 1 <> 0 then invalid_arg "qam_bits_per_symbol: not a power of two"
    else log2 (acc + 1) (n lsr 1)
  in
  log2 0 m

let qam_gbps ~bandwidth_mhz ~qam ~coding_rate ~channels =
  if not (coding_rate > 0.0 && coding_rate <= 1.0 && channels > 0) then
    invalid_arg "Capacity.qam_gbps: coding_rate in (0,1] and channels > 0 required";
  let bits = float_of_int (qam_bits_per_symbol qam) in
  bandwidth_mhz *. 1e6 *. bits *. coding_rate *. float_of_int channels /. 1e9

let series_for_gbps gbps =
  if gbps <= 0.0 then 0
  else begin
    let k = int_of_float (Float.ceil (sqrt (gbps /. hop_gbps))) in
    max 1 k
  end

let gbps_of_series k =
  if k < 0 then invalid_arg "Capacity.gbps_of_series: negative series count";
  float_of_int (k * k) *. hop_gbps
