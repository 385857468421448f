let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
    /. float_of_int n
  end

let stddev xs = sqrt (variance xs)

let min_max xs =
  if Array.length xs = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let percentile_sorted ys p =
  let n = Array.length ys in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p <= 0.0 then ys.(0)
  else if p >= 100.0 then ys.(n - 1)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    ys.(lo) +. (frac *. (ys.(hi) -. ys.(lo)))
  end

let percentile xs p = percentile_sorted (sorted_copy xs) p

let median xs = percentile xs 50.0

let cdf xs =
  let ys = sorted_copy xs in
  let n = Array.length ys in
  Array.mapi (fun i y -> (y, float_of_int (i + 1) /. float_of_int n)) ys

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let summarize xs =
  let n = Array.length xs in
  if n = 0 then
    { n = 0; mean = 0.; stddev = 0.; min = 0.; p50 = 0.; p95 = 0.; p99 = 0.; max = 0. }
  else begin
    let ys = sorted_copy xs in
    {
      n;
      mean = mean xs;
      stddev = stddev xs;
      min = ys.(0);
      p50 = percentile_sorted ys 50.0;
      p95 = percentile_sorted ys 95.0;
      p99 = percentile_sorted ys 99.0;
      max = ys.(n - 1);
    }
  end

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.4f sd=%.4f min=%.4f p50=%.4f p95=%.4f p99=%.4f max=%.4f"
    s.n s.mean s.stddev s.min s.p50 s.p95 s.p99 s.max
