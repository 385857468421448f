(** Step 1 of the cISP design (paper §3.1, §4): feasible tower-tower
    hops and shortest city-city microwave links.

    Builds a graph whose nodes are the sites (population centers)
    followed by the culled towers, with an edge for every pair that
    passes the line-of-sight + range test, then extracts for each pair
    of sites the shortest "link": its length [m_ij] (latency input to
    step 2) and its tower count (cost input [c_ij]).

    A site's own antenna stands 80 m above its ground, and a site
    reaches the towers within 40 km of it (the paper observes every
    site hosts enough towers to start from, §3.1); a site-to-tower hop
    needs only 50 m of range, not {!Cisp_rf.Los}'s minimum. *)

type config = {
  los_params : Cisp_rf.Los.params;
  height_fraction : float;      (** usable fraction of tower height (§6.5) *)
}

val default_config : config

type t = {
  config : config;
  sites : Cisp_data.City.t array;
  towers : Tower.t array;
  graph : Cisp_graph.Graph.t;
      (** node ids: [0 .. n_sites-1] are sites, [n_sites + k] is tower [k] *)
  n_sites : int;
  feasible_hops : int;          (** tower-tower edges that passed the check *)
}

val build :
  ?config:config ->
  cache:Cisp_terrain.Dem_cache.t ->
  sites:Cisp_data.City.t list ->
  towers:Tower.t list ->
  unit -> t

val tower_node : t -> int -> int
(** Graph node id of tower index [k]. *)

val is_tower_node : t -> int -> bool

val node_position : t -> int -> Cisp_geo.Coord.t
(** Position of a graph node: the site's coordinate for
    [node < n_sites], the tower's position otherwise. *)

type link = {
  src : int;                    (** site index *)
  dst : int;                    (** site index *)
  distance_km : float;          (** MW path length, the paper's m_ij *)
  geodesic_km : float;          (** site-to-site great-circle distance *)
  node_path : int list;         (** graph nodes from src site to dst site *)
  tower_count : int;            (** interior tower nodes = cost c_ij in towers *)
}

val hops_of_link : link -> (int * int) list
(** Consecutive node pairs along the path (physical hops). *)

val all_links : t -> link option array array
(** [all_links t].(i).(j) for all site pairs (symmetric up to path
    direction, diagonal [None]).  One Dijkstra per site over the
    tower graph, run on the domain pool. *)
