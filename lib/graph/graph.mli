(** Weighted directed graph over dense integer node ids.

    Nodes are [0 .. node_count - 1]; edges carry a float weight and an
    optional integer tag (used by cISP to record which city-city link
    or physical hop an edge belongs to). *)

type edge = { dst : int; weight : float; tag : int }
type t

val create : int -> t
(** [create n] makes a graph with [n] nodes and no edges. *)

val node_count : t -> int
val edge_count : t -> int
(** Directed edges, counted over the adjacency lists (O(n + m)). *)

val add_edge : ?tag:int -> t -> int -> int -> float -> unit
(** [add_edge g u v w] adds a directed edge.  Weights must be >= 0. *)

val add_undirected : ?tag:int -> t -> int -> int -> float -> unit
(** Both directions. *)

val succ : t -> int -> edge list
(** Successor edges of a node (in insertion order, reversed). *)

val iter_succ : t -> int -> (edge -> unit) -> unit

val remove_edges : t -> (int -> edge -> bool) -> unit
(** [remove_edges g keep] drops every edge (u, e) where
    [keep u e = false]. *)

val copy : t -> t
