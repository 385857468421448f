(* The queue holds slot indices; the closures live in [events].  Free
   slots form a stack in [free.(0 .. n_free - 1)].  A slot is released
   before its event runs, because events schedule other events. *)
type t = {
  queue : Cisp_graph.Heap.t;
  mutable events : (unit -> unit) array;
  mutable free : int array;
  mutable n_free : int;
  mutable clock : float;
  mutable count : int;
}

let idle () = ()

let create () =
  {
    queue = Cisp_graph.Heap.create ();
    events = [||];
    free = [||];
    n_free = 0;
    clock = 0.0;
    count = 0;
  }

let now t = t.clock

(* Called with every slot taken: double the slots, stack the new ones. *)
let grow t =
  let cap = Array.length t.events in
  let cap' = max 64 (2 * cap) in
  let events = Array.make cap' idle in
  Array.blit t.events 0 events 0 cap;
  t.events <- events;
  t.free <- Array.init cap' (fun k -> cap' - 1 - k);
  t.n_free <- cap' - cap

let schedule t ~at f =
  if at < t.clock then invalid_arg "Engine.schedule: at is in the past";
  if t.n_free = 0 then grow t;
  t.n_free <- t.n_free - 1;
  let slot = t.free.(t.n_free) in
  t.events.(slot) <- f;
  Cisp_graph.Heap.push t.queue at slot

let schedule_in t ~after f = schedule t ~at:(t.clock +. after) f

let run t ~until =
  let count_before = t.count in
  let rec loop () =
    if Cisp_graph.Heap.length t.queue > 0 then begin
      let at = Cisp_graph.Heap.min_key t.queue in
      if not (at > until) then begin
        let slot = Cisp_graph.Heap.pop_min t.queue in
        let f = t.events.(slot) in
        t.events.(slot) <- idle;
        t.free.(t.n_free) <- slot;
        t.n_free <- t.n_free + 1;
        t.clock <- at;
        t.count <- t.count + 1;
        f ();
        loop ()
      end
    end
  in
  loop ();
  if t.clock < until then t.clock <- until;
  if Cisp_util.Telemetry.enabled () then
    Cisp_util.Telemetry.add "sim.events" (t.count - count_before)

let events_processed t = t.count
