(** Year-long weather sweep (paper §6.1, Fig 7).

    "For each day over a period of a year, we select a 30-minute
    interval uniformly at random, and identify the links that would
    fail during it.  We then evaluate the latency for each pair of
    cities end-to-end for each interval."  Failed links are removed
    and traffic reroutes over surviving MW links and fiber. *)

type pair_summary = {
  best : float;      (** fair-weather stretch *)
  median : float;
  p99 : float;
  worst : float;
  fiber : float;     (** fiber-only stretch for the pair *)
}

type result = {
  intervals : int;
  mean_failed_links : float;
  per_pair : pair_summary array;   (** over all site pairs s < t with traffic *)
}

val run :
  ?seed:int ->
  ?intervals:int ->
  climate:Rainfield.climate ->
  hops:Cisp_towers.Hops.t ->
  Cisp_design.Inputs.t ->
  Cisp_design.Topology.t ->
  result
(** Each interval's outages are those of {!Scenarios.surviving} under
    [Rain_replay { climate; intervals }].  [intervals] defaults to 365
    (one per day).  Raises
    [Invalid_argument] if [intervals <= 0] or if no site pair has
    both traffic and a positive distance. *)

val stretch_cdfs : result -> (string * (float * float) array) list
(** Fig 7's curves: CDFs across city pairs of best / median / 99th /
    worst stretch, plus the fiber-only curve. *)
