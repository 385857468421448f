(* Per-domain lazily-created slots, a thin veneer over [Domain.DLS].

   Its own unit, below [Pool] in the dependency order, so that
   [Telemetry] (which the pool itself calls) can keep per-domain state
   too; the pool's hot paths ([Los], [Noise]) use it directly. *)

type 'a t = 'a Domain.DLS.key

let create init = Domain.DLS.new_key init
let get t = Domain.DLS.get t
