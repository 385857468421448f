(** Orchestration: load annotation files, run the pass list, apply
    the allowlist, decide the exit code.

    A run is a list of {!pass}es over one load of the tree: the
    per-expression rules L1-L6 (a unit at a time, each pass with its
    own unit filter) and the interprocedural pass L7-L15 (call graph +
    effect summaries over every loaded unit at once, see
    {!Callgraph}/{!Summary}/{!Effect_rules}). *)

type report = {
  diagnostics : Diag.t list;
      (** violations, sorted by (file, line, col, rule) and
          deduplicated — byte-stable regardless of [.cmt] discovery
          order — with the allowlist applied *)
  suppressed : Diag.t list;  (** matched by the allowlist *)
  stale : Allowlist.entry list;
      (** allowlist entries that matched no diagnostic this run *)
  errors : string list;  (** unreadable annotation files etc. *)
  units_checked : int;
}

val empty_report : report

type pass =
  | Expr of { rules : Diag.rule list; select : Loader.unit_ -> bool }
  | Interprocedural of Effect_rules.config

val run_pass :
  ?on_graph:(Callgraph.t -> Effects.t array -> unit) ->
  Loader.unit_ list ->
  pass ->
  Diag.t list
(** One pass, unsorted diagnostics; exposed for tests.  [on_graph] is
    invoked with the call graph and finalized summaries of an
    interprocedural pass (the [--lock-graph] hook). *)

val run : ?allowlist:Allowlist.t -> ?lock_dot:string -> string list -> report
(** [run roots] lints every [.cmt]/[.cmti] under [roots] with every
    rule: the expression rules on implementations, L4 on interfaces,
    and the interprocedural pass with the permissive
    {!Effect_rules.generic} policy (everything in scope, every node
    an L9/L12/L15 root, empty canonical lock order).  [lock_dot]
    writes the derived lock-acquisition graph to that path in
    Graphviz DOT (a write failure lands in [errors]). *)

val run_repo :
  ?allowlist:Allowlist.t ->
  ?lock_dot:string ->
  root:string ->
  unit ->
  report
(** The checked-in repo policy, relative to [root]:
    L1/L2/L3/L5/L6 on [lib/] implementations; L4 on the interfaces of
    the unit-heavy sublibraries ([lib/geo], [lib/rf], [lib/terrain],
    [lib/fiber], [lib/design]); L1/L3 on [bin/], [bench/] and
    [examples/]; the interprocedural pass over the whole tree with
    L7/L10/L11/L13/L14 everywhere, L8 on library units, L9/L12/L15
    seeded at the design pipeline entry points with sites flagged in
    library sources, and L13 checked against the canonical lock order
    of DESIGN.md §7e.  [lock_dot] as in {!run}. *)

val exit_code : report -> int
(** 0 clean, 1 violations, 2 no violations but load errors. *)
