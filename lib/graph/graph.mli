(** Undirected weighted graph over dense integer node ids, frozen once
    built: the pipeline's one graph form.

    Nodes are [0 .. node_count - 1].  Edges keep the ids
    [0 .. edge_count - 1] in the order {!of_edges} was given them.
    Node [u]'s arcs, one per incident edge, sit in
    [first.(u) .. first.(u+1) - 1] in decreasing edge id, each with its
    far end, its edge id and the edge's weight, so a search reads them
    in sequence.  That order is the tie rule: among equal-length paths
    {!Dijkstra} keeps the one whose arcs it relaxes first.

    Nothing changes after {!of_edges} but one byte per edge that marks
    it removed, which every search skips: "the graph minus these
    edges" is {!copy}, then {!remove} on each. *)

type t = private {
  edge_u : int array;        (** endpoint given first, per edge *)
  edge_v : int array;        (** the other endpoint *)
  first : int array;         (** [node_count + 1] arc offsets *)
  arc_dst : int array;       (** per arc: the far end *)
  arc_edge : int array;      (** per arc: its edge id *)
  arc_weight : float array;  (** per arc: its edge's weight *)
  removed : Bytes.t;         (** per edge: ['\001'] once removed *)
}

val of_edges : n:int -> int array -> int array -> float array -> t
(** [of_edges ~n u v w] has [n] nodes and, for each [e], edge [e]
    joining [u.(e)] and [v.(e)] with weight [w.(e)]; no edge removed.
    Keeps [u] and [v] as its [edge_u] and [edge_v], so the caller must
    not write to them afterwards.  Raises [Invalid_argument] on
    [n < 0], arrays of unequal length, a node out of range or a
    negative weight. *)

val node_count : t -> int
val edge_count : t -> int

val remove : t -> int -> unit
(** [remove g e] marks edge [e] removed. *)

val is_removed : t -> int -> bool

val copy : t -> t
(** Shares the edges and copies the removal bytes: removing edges in
    the copy leaves the original as it was. *)
