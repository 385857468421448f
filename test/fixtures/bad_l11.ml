(* L11: per-call allocation inside pool worker bodies.  The workers
   deliberately keep their hands off shared state so these fixtures
   exercise L11 alone, not L7. *)

(* closure allocated on every iteration *)
let per_iter_closure (arr : float array) (out : float array) =
  Cisp_util.Pool.parallel_for ~n:(Array.length arr) (fun i ->
      let f j = arr.(j) +. float_of_int i in
      out.(i) <- f i)

(* a float ref boxes its contents on every store *)
let boxes (out : float array) =
  Cisp_util.Pool.parallel_for ~n:8 (fun i ->
      let acc = ref 0.0 in
      for j = 0 to i do
        acc := !acc +. float_of_int j
      done;
      out.(i) <- !acc)

(* allocation-free worker: scalar state, per-slot writes *)
let clean (out : float array) =
  Cisp_util.Pool.parallel_for ~n:8 (fun i ->
      out.(i) <- (float_of_int i *. 2.0) +. 1.0)
