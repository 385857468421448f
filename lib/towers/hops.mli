(** Step 1 of the cISP design (paper §3.1, §4): feasible tower-tower
    hops and shortest city-city microwave links.

    The hop graph's nodes are the sites (population centers) followed
    by the culled towers.  {!build} only lists the candidate edges
    into one {!Cisp_graph.Graph.t}: every tower pair within hop range
    and every site-tower pair within a site's attach radius, each
    weighted by its great-circle length, with its verdict untested.
    A blocked edge is a removed one.  A pair outside
    {!Cisp_rf.Los}'s range is blocked from its distance alone; every
    other verdict comes from {!Cisp_rf.Los.feasible_cached}, the
    line-of-sight + Fresnel test, run the first time some reader needs
    the edge.

    {!all_links} reads the graph only through site-to-site shortest
    paths, so it tests only the edges on the paths it returns (LazySP:
    search with untested edges counted as feasible, test the edges on
    the paths found, repair the subtrees under the blocked ones,
    repeat; the search and its repair are {!Cisp_graph.Dijkstra}'s).
    Whole-graph readers call {!force_graph}, which tests every
    remaining candidate and returns the candidate graph with every
    blocked edge removed.

    Verdicts are written into [t], so neither {!all_links} nor
    {!force_graph} may run concurrently with another call on the same
    [t].  Each parallelizes its own LOS tests on the domain pool.

    A site's own antenna stands 80 m above its ground, and a site
    reaches the towers within 40 km of it (the paper observes every
    site hosts enough towers to start from, §3.1); a site-to-tower hop
    needs only 50 m of range, not {!Cisp_rf.Los}'s minimum. *)

type config = {
  los_params : Cisp_rf.Los.params;
  height_fraction : float;      (** usable fraction of tower height (§6.5) *)
}

val default_config : config

type candidates
(** The candidate edges, their lengths and their verdicts. *)

type t = private {
  config : config;
  sites : Cisp_data.City.t array;
  towers : Tower.t array;
  n_sites : int;
      (** node ids: [0 .. n_sites-1] are sites, [n_sites + k] is tower [k] *)
  mutable feasible_hops : int;
      (** tower-tower edges found feasible so far; after {!force_graph},
          every feasible tower-tower edge *)
  candidates : candidates;
}

val build :
  ?config:config ->
  cache:Cisp_terrain.Dem_cache.t ->
  sites:Cisp_data.City.t list ->
  towers:Tower.t list ->
  unit -> t
(** Lists the candidate edges; tests none. *)

val force_graph : t -> Cisp_graph.Graph.t
(** Tests every candidate not tested yet (on the domain pool) and
    returns a {!Cisp_graph.Graph.copy} of the candidate graph: fresh
    removal bytes, the blocked edges removed, so the edges left are
    the feasible ones.  Edge ids are in candidate order: tower pairs
    by lower tower index, then site attachments by site, each in grid
    order. *)

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
    direction, diagonal [None]): the shortest path over the feasible
    edges, the one Dijkstra finds on {!force_graph}'s graph unless two
    paths tie exactly.  One lazy search per source site, in index
    order; each round's LOS tests run on the domain pool, so the tests
    made and the results are the same at every width. *)
