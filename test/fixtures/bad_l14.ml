(* L14: calls that may block while a lock is held or inside a pool
   worker body.  [ok_after_unlock] blocks only after releasing and
   must stay silent. *)

let lock = Mutex.create ()

(* file IO under a mutex *)
let io_under_lock path =
  Mutex.protect lock (fun () ->
      let oc = open_out path in
      close_out oc)

(* joining a domain while holding a lock: the join can wait on work
   that needs the same lock *)
let join_under_lock d =
  Mutex.lock lock;
  Domain.join d;
  Mutex.unlock lock

(* mutex acquisition inside a pool body funnels every worker through
   one lock *)
let lock_in_pool (out : float array) =
  Cisp_util.Pool.parallel_for ~n:8 (fun i ->
      Mutex.protect lock (fun () -> out.(i) <- float_of_int i))

(* blocking after the unlock is fine *)
let ok_after_unlock path =
  Mutex.lock lock;
  Mutex.unlock lock;
  let oc = open_out path in
  close_out oc

(* interprocedural: the blocking call sits one frame below the lock *)
let deep_block path =
  let oc = open_out path in
  close_out oc

let via path = Mutex.protect lock (fun () -> deep_block path)
