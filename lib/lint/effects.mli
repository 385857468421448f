(** Effect vocabulary for the interprocedural passes: witness sites,
    exception-handler masks, the per-function effect lattice, and the
    tables describing what external (stdlib/unix) calls do.

    A summary is a point in a finite join-semilattice — maps only
    grow, witness sites only shrink towards the smallest
    (file, line, col), booleans only flip to [true] — so the fixpoint
    in {!Summary} terminates on any call graph, cyclic ones
    included. *)

module SS : Set.S with type elt = string
module SM : Map.S with type key = string
module IM : Map.S with type key = int

(** {2 Witness sites} *)

type site = { file : string; line : int; col : int }

val site_of_loc : Location.t -> site
val loc_of_site : site -> Location.t
(** A ghost-free single-point location, good enough for {!Diag.make}. *)

val compare_site : site -> site -> int
val min_site : site -> site -> site
val site_to_string : site -> string
(** ["file:line"]. *)

module RS : Set.S with type elt = string * site
(** Nondeterminism reads: (what is read, where). *)

(** {2 Exception-handler masks}

    What an enclosing [try]/[match ... with exception] context
    catches; applied to direct raises at their site and carried on
    call edges. *)

type mask =
  | Catch_all  (** a wildcard / variable handler pattern *)
  | Catch of SS.t  (** these constructor names only *)

val mask_none : mask
val compose_mask : mask -> mask -> mask
val mask_catches : mask -> string -> bool
val mask_raises : mask -> site SM.t -> site SM.t
(** Remove the raises the mask catches. *)

(** {2 The effect lattice} *)

type t = {
  raises : site SM.t;
      (** bare exception constructor name -> smallest witness *)
  nondet : RS.t;  (** ambient-nondeterminism read sites *)
  io : bool;
  locks : bool;
      (** takes a mutex {e directly}; never propagated through calls *)
  mut_global : site SM.t;
      (** canonical name of mutated module-level state -> witness *)
  mut_param : site IM.t;  (** mutated own-parameter index -> witness *)
  mut_free : (string * site) SM.t;
      (** mutated free local captured from an enclosing scope, keyed
          by [Ident.unique_name] -> (display name, witness) *)
  allocs : site SM.t;
      (** heap-allocation kind tag ("closure", "boxed float", "tuple",
          "record", ...) -> smallest witness site.  Models native-code
          behaviour; raise paths are exempt (see DESIGN.md §7d). *)
  poly_cmp : RS.t;
      (** polymorphic compare/hash uses with a monomorphic
          replacement: (description, site).  Consumed by L12. *)
  acquires : site SM.t;
      (** canonical mutex identity -> smallest acquisition site, direct
          or transitive.  Unlike [locks] this propagates through calls.
          Consumed by L13. *)
  blocks : site SM.t;
      (** blocking-call kind -> smallest witness site; propagates
          except through scheduling-boundary edges.  Consumed by
          L14. *)
  float_merges : RS.t;
      (** order-sensitive float accumulation over unordered sources:
          (description, site).  Consumed by L15. *)
}

val bottom : t
val union : t -> t -> t
val equal : t -> t -> bool
val drop_mut : t -> t
val drop_allocs : t -> t

(** {2 External effect tables}

    Keyed by canonical name ([Stdlib.] stripped, [Lib__Module]
    mangling expanded).  Unknown externals contribute nothing. *)

val ext_raises : string -> string option
val ext_mut_arg : string -> int option
(** Mutated positional argument index.  [Array.set]/[Bytes.set] are
    deliberately exempt: per-slot writes are the pool's documented
    index-ownership convention. *)

val ext_nondet : string -> string option
(** [Some description] when the call reads ambient nondeterminism. *)

val ext_locks : string -> bool
val ext_io : string -> bool

val ext_alloc : string -> string option
(** [Some kind] when the call heap-allocates on its success path in
    native code.  Float/Int64 register arithmetic, captureless
    closures, constants, and failure paths are deliberately absent. *)

val ext_boxes_float_arg : string -> int option
(** Positional argument that gets boxed when instantiated at [float]
    (stored into a non-flat heap slot). *)

val ext_poly_cmp : string -> bool
(** Polymorphic structural compare/hash primitives ([compare],
    [Hashtbl.hash], ...) that L12 flags when passed as first-class
    values or applied at float-heavy types. *)

val ext_blocking : string -> string option
(** [Some kind] when the call may park the calling domain ("mutex
    acquisition", "condition wait", "Domain.join", "io", "Unix system
    call").  [Mutex.try_lock] and the non-blocking [Unix] reads
    (clock, [getenv], [getpid]) are deliberately absent. *)
