(** Lint diagnostics: the fifteen repo rules and [file:line:col] reports.

    The per-expression rules, one unit at a time ({!Rules}):

    - L1: no polymorphic compare / equality ([compare], [min], [max],
      [=], [<>]) instantiated at a float-bearing type.
    - L2: no partial stdlib calls ([List.hd], [List.tl], [List.nth],
      [Option.get], bare [Hashtbl.find], ...) in library code.
    - L3: no duplicated physical constants (299792.458, 6371.0, the
      1.5 glass factor, ...) outside [Cisp_util.Units].
    - L4: every public function of the unit-heavy libraries taking a
      bare [float] must carry the unit in a label or name suffix
      ([_km], [_ms], [_ghz], [_gbps], [_deg], ...).
    - L5: no stdout printing from library code.
    - L6: no [assert] for data validation in library code — asserts
      vanish under [-noassert], so inputs must be checked with
      [invalid_arg].  [assert false] (unreachable marker) is exempt.

    The effect family, the first of three interprocedural families
    consuming the call graph and effect summaries ({!Callgraph},
    {!Effects}, {!Summary}, checked by {!Effect_rules}):

    - L7: a closure handed to [Cisp_util.Pool.parallel_for] must not
      transitively mutate shared state that is neither [Atomic] nor
      mutex-protected.
    - L8: a function exported by a [.mli] must not (transitively)
      raise anything but the documented [Invalid_argument]
      convention; the diagnostic lands on the public function of the
      unit where the offending raise originates.
    - L9: no reads of ambient nondeterminism ([Random], [Sys.time],
      [Unix.gettimeofday], hash-table iteration order, environment
      variables) reachable from the design pipeline outside
      [Cisp_util.Rng].

    The allocation-discipline family (also interprocedural):

    - L10: a function carrying [@cisp.zero_alloc] must not reach any
      heap allocation in its transitive call graph; blamed at the
      allocation's origin site, like L8.
    - L11: a closure handed to [Cisp_util.Pool.parallel_for] must not
      allocate a closure, box a float, or build a partial application
      per call — the per-iteration garbage that kills multicore
      scaling.
    - L12: no polymorphic [compare]/[Hashtbl.hash] reachable from the
      design pipeline where a monomorphic float/int comparison
      exists.

    The concurrency-discipline family (also interprocedural):

    - L13: every pair of nested lock acquisitions must agree with the
      canonical lock order (DESIGN.md §7e); cycles and reacquisitions
      in the derived acquisition graph are deadlocks-in-waiting.
    - L14: no call that may block (mutex acquisition, [Domain.join],
      [Condition.wait], IO, [Unix] syscalls) while a lock is held or
      inside a [Cisp_util.Pool.parallel_for] body.  The condition-wait
      protocol — waiting on the SAME mutex you hold — is exempt.
    - L15: no float accumulation over an unordered source (raw
      [Hashtbl.fold]/[iter] outside [Cisp_util.Tbl], hand-rolled
      [Domain.join] merges) reachable from the design pipeline — the
      bit-identity contract admits only ordered folds, such as the
      caller's index-order fold over the slots a [parallel_for]
      filled. *)

type rule =
  | L1
  | L2
  | L3
  | L4
  | L5
  | L6
  | L7
  | L8
  | L9
  | L10
  | L11
  | L12
  | L13
  | L14
  | L15

val all_rules : rule list
val rule_id : rule -> string
val rule_of_string : string -> rule option
val rule_doc : rule -> string

type t = {
  rule : rule;
  file : string;  (** source path as recorded by the compiler *)
  line : int;     (** 1-based *)
  col : int;      (** 0-based *)
  symbol : string;
      (** enclosing top-level value (expression rules) or signature
          item (L4); [""] when unknown *)
  message : string;
  witness : string list;
      (** interprocedural chain from the flagged site to the deep
          evidence (L13/L14); empty for single-site findings *)
}

val make :
  ?witness:string list ->
  rule:rule ->
  symbol:string ->
  message:string ->
  Location.t ->
  t
(** Diagnostic at the start of [loc]. *)

val order : t -> t -> int
(** Total order: file, line, column, rule, message, symbol, then
    witness.  Two diagnostics compare equal only when every field is
    equal, so deduplicating with it drops exact duplicates only. *)

val to_string : t -> string
(** ["file:line:col: [L2] message (in `symbol')"]. *)

val to_json : t -> string
(** One JSON object: [{"file":..,"line":..,"col":..,"rule":..,
    "symbol":..,"message":..}] with RFC 8259 string escaping; a
    non-empty witness chain appends a ["witness":[..]] array. *)
