(** Phase 2: the summary-consuming rules L7 (domain-safety), L8
    (exception-escape), L9 (nondeterminism-taint), L10 (zero-alloc
    contracts), L11 (pool-body allocation), L12
    (polymorphic-comparison taint), L13 (lock-order consistency), L14
    (blocking-under-lock) and L15 (float-merge determinism).

    Policies are injected through {!config}; {!generic} checks
    everything everywhere (the fixture/test mode), while
    {!Engine.run_repo} narrows L8/L9/L12/L15 to library sources, seeds
    reachability at the design-pipeline entry points, and supplies the
    repo's canonical lock order. *)

type config = {
  l7 : bool;
  l8 : bool;
  l9 : bool;
  l10 : bool;
  l11 : bool;
  l12 : bool;
  l13 : bool;
  l14 : bool;
  l15 : bool;
  l8_unit_ok : string -> bool;
      (** is this source file held to the public-raise convention? *)
  l9_root : Callgraph.node -> bool;
      (** pipeline entry points; L12/L15 reachability uses the same
          roots *)
  l9_site_ok : string -> bool;
      (** source files where L9 reads are flagged *)
  l9_exempt : string -> bool;
      (** canonical node names allowed to read nondeterminism *)
  l12_site_ok : string -> bool;
      (** source files where L12 sites are flagged *)
  l13_order : string list;
      (** canonical lock order, outermost first; acquisitions jumping
          backwards in this list are flagged even without a cycle *)
  l15_site_ok : string -> bool;
      (** source files where L15 sites are flagged *)
  l15_exempt : string -> bool;
      (** canonical node names allowed to fold unordered containers *)
}

val default_l9_exempt : string -> bool
(** [Cisp_util.Rng] — the sanctioned, seeded randomness source. *)

val default_l15_exempt : string -> bool
(** [Cisp_util.Tbl] — the sorted-view shim over [Hashtbl]. *)

val generic : config
(** Every rule on, all nodes are reachability roots, only the default
    exemptions, empty canonical lock order. *)

(** {2 The derived lock-acquisition graph} *)

type lock_edge = {
  le_from : string;  (** lock class held *)
  le_to : string;  (** lock class acquired under it *)
  le_site : Effects.site;  (** smallest witness site *)
  le_symbol : string;  (** enclosing top-level value at the witness *)
  le_witness : string list;
      (** call chain from the witness down to the deep acquisition,
          empty when the acquisition is direct *)
}

val lock_graph : Callgraph.t -> Effects.t array -> lock_edge list
(** One edge per (held, acquired) lock-class pair observed anywhere,
    deduplicated on the smallest witness site; byte-stable. *)

val lock_classes : Callgraph.t -> string list
(** Every lock class acquired anywhere (the graph's vertex set,
    isolated vertices included), sorted. *)

val lock_graph_dot : Callgraph.t -> Effects.t array -> string
(** The acquisition graph in Graphviz DOT, vertices and edges sorted
    (emitted by [cisp_lint --lock-graph], archived by CI). *)

val check : config -> Callgraph.t -> Summary.result -> Diag.t list
(** Unsorted; {!Engine} owns ordering and allowlisting. *)
