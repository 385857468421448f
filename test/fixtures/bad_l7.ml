(* L7: closures handed to the pool must not mutate shared state. *)
let total = ref 0

let direct () =
  Cisp_util.Pool.parallel_for ~n:8 (fun i -> total := !total + i)

let indirect () =
  Cisp_util.Pool.parallel_for ~n:8 (fun i -> Bad_l7_helper.record i)

let captured () =
  let acc = ref 0 in
  Cisp_util.Pool.parallel_for ~n:8 (fun i -> acc := !acc + i);
  !acc

let clean (arr : int array) =
  let n = Array.length arr in
  let out = Array.make n 0 in
  Cisp_util.Pool.parallel_for ~n (fun i -> out.(i) <- arr.(i) * 2);
  out
