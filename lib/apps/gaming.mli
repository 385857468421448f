(** Online-gaming latency models (paper §7.1, Fig 12).

    Fat-client gaming sends low-volume actions/state over the
    low-latency network directly.  Thin-client gaming streams frames;
    the paper's speculative scheme pre-sends the frames for every
    possible input over fiber and flips between them with a tiny
    confirmation message over cISP, so the user-visible frame time
    tracks the cISP RTT instead of the fiber RTT.

    Constants of the model: every frame pays 20 ms of processing (an
    8 ms server tick plus 12 ms of client decode and render), and
    cISP's one-way latency is 1/3 of the conventional network's (paper
    §7: near-c latency against the Internet's ~3x inflation). *)

type params = {
  speculation_coverage : float;  (** fraction of inputs pre-computed *)
}

val default_params : params
(** Full coverage (Pacman: all 4 directions speculated). *)

type mode =
  | Thin_conventional      (** input -> server -> frame over the Internet *)
  | Thin_speculative_cisp  (** speculative frames + cISP confirmations *)
  | Fat_conventional       (** actions and state over the Internet *)
  | Fat_cisp               (** actions and state over cISP *)

val frame_time_ms : ?params:params -> mode -> one_way_ms:float -> float
(** Expected frame time (input-to-display) when the conventional
    network's one-way latency is [one_way_ms]. *)

val simulate_session :
  ?params:params -> mode -> one_way_ms:float -> inputs:int -> Cisp_util.Stats.summary
(** Monte-Carlo session: per-input frame times including jitter and
    speculation misses, drawn from a fixed RNG seed (5). *)
