(** Step 3: capacity augmentation (paper §3.3, §4).

    Routes the target aggregate demand over the designed topology's
    site network ({!Topology.routes}: a pair rides its MW link only
    where {!Topology.rides_mw} says so, exactly as the routing schemes
    and the packet network do), sizes every built MW link with
    parallel tower series (k series provide k^2 Gbps via the
    angular-separation trick), and accounts for new towers where the
    existing registry has no spares near a hop. *)

type link_plan = {
  link : int * int;              (** site pair *)
  load_gbps : float;
  series : int;                  (** parallel tower series, k *)
  hops : int;                    (** physical hops along the link *)
}

type plan = {
  links : link_plan list;
  mw_carried_fraction : float;   (** traffic fraction whose path uses MW *)
  hops_total : int;              (** hops across built links (1 series) *)
  hop_classes : (int * int) list;
      (** (new towers needed at each hop end, hop count), ascending;
          class 0 = augmentable with existing towers only *)
  radios : int;                  (** hop-series radio installations *)
  new_towers : int;
  rented_towers : int;           (** existing towers occupied, all series *)
}

val route_loads : Inputs.t -> Topology.t -> aggregate_gbps:float -> ((int * int) * float) list
(** Per-built-link carried load in Gbps under shortest-path routing
    of the scaled traffic matrix — the busier of the two directions,
    since links are duplex and capacity is per-direction.  Raises
    [Invalid_argument] if [aggregate_gbps < 0]. *)

val plan :
  ?spare_series_at_hop:(int -> int -> int) ->
  Inputs.t -> Topology.t -> aggregate_gbps:float -> plan
(** [spare_series_at_hop u v] tells how many additional parallel
    series can reuse existing towers around hop (u, v) (graph node
    ids); default comes from local tower density when hop data is
    available, else 0 (most conservative: every extra series charges
    new towers).  One routing pass yields both the loads and
    [mw_carried_fraction].  Raises [Invalid_argument] if
    [aggregate_gbps < 0]. *)

val spare_from_registry : Cisp_towers.Hops.t -> int -> int -> int
(** Density-based spare estimate: registry towers within a small
    radius of the hop, capped.  [spare_from_registry h] builds a
    spatial index of [h]'s towers; apply it once per plan and reuse
    the resulting function. *)

val total_cost_usd : Cost.t -> plan -> float
val cost_per_gb : Cost.t -> plan -> aggregate_gbps:float -> float
