(** The §2 HFT-relay loss study.

    The paper reports packet loss for an FCC-licensed Chicago-to-New-
    Jersey MW relay over 2,743 one-minute intervals spanning
    2012-10-22 to 2012-11-01 — a window that includes Hurricane Sandy
    hitting New Jersey: mean loss 16.1%, median 1.4%.

    This module reconstructs that experiment synthetically: a ~20-hop
    relay along the Chicago-Carteret great circle, ordinary weather
    for most of the window, and a hurricane parked over the eastern
    end for four days.  The relay has 20 hops and the weather a fixed
    seed. *)

type result = {
  minutes : int;
  mean_loss : float;
  median_loss : float;
  loss_series : float array;   (** per-minute loss rates *)
}

val run : ?minutes:int -> unit -> result
(** [minutes] defaults to the paper's 2743. *)
