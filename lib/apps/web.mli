(** Web page-load model (paper §7.2, Fig 13).

    Substitute for the Mahimahi record-and-replay of 80 Alexa pages:
    a synthetic page corpus whose object counts, sizes, origin counts
    and dependency depths follow published page-statistics
    distributions, and an RTT-driven fetch model (connection setup,
    request-response rounds per dependency level over parallel
    connections, plus non-network server/render time).  As in the
    paper, no bandwidth limits are imposed, so latency scaling is the
    only variable.

    The model supports {e selective} RTT scaling: client-to-server
    and server-to-client delays scale independently, which is how the
    paper evaluates carrying only the 8.5% of (client-to-server)
    bytes over cISP. *)

type obj = {
  size_bytes : int;
  level : int;            (** dependency depth; 0 = root HTML *)
  origin : int;           (** which server it comes from *)
}

type page = {
  objects : obj list;
  base_rtt_ms : float;    (** recorded client-server RTT for this page *)
  server_ms : float;      (** per-request server think time *)
  render_ms : float;      (** client-side non-network time per level *)
}

val generate : count:int -> page list
(** A corpus like the paper's 80-site sample, drawn from a fixed
    seed. *)

type scaling = {
  c2s : float;            (** multiplier on the client-to-server delay *)
  s2c : float;            (** multiplier on the server-to-client delay *)
}

val baseline : scaling

val cisp : scaling
(** Both directions at 0.33. *)

val cisp_selective : scaling
(** Only client-to-server at 0.33. *)

val plt_ms : page -> scaling -> float
(** Page load time under scaled latencies. *)

val object_load_times_ms : page -> scaling -> float list
(** Per-object fetch latencies (for Fig 13b). *)

val small_object_threshold_bytes : int
(** 1460 bytes, as in the paper. *)

val c2s_byte_fraction : page list -> float
(** Fraction of total bytes flowing client-to-server (requests) —
    the paper measures 8.5%. *)
