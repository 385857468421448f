(** The six per-expression lint rules (L1-L6) over typed ASTs (see
    {!Diag.rule}).

    Detection is structural: L1 inspects the instantiated type of each
    reference to a polymorphic comparison primitive (so passing bare
    [compare] to [Array.sort] over floats is caught, not just direct
    application); float-bearing means the type syntactically contains
    [float] through tuples and type-constructor arguments (abstract
    types are not expanded).  L3 matches float literals against the
    protected constants within a 1e-9 relative tolerance. *)

val normalize_ident : Path.t -> string
(** "Stdlib__List.hd" / "Stdlib.List.hd" -> "List.hd". *)

val contains_float : Types.type_expr -> bool

val carries_unit : string -> bool
(** Whether a name's trailing underscore segment names a unit
    ([_km], [_ghz], ...) or recognized dimensionless quantity
    ([_frac], [_stretch], ...). *)

val protected_constant : float -> (float * string) option
(** The physical constant a literal duplicates, if any, and where it
    lives in [Cisp_util.Units]. *)

val is_units_source : string -> bool
(** True for [Cisp_util.Units] itself — the one home allowed to spell
    out physical constants. *)

val check_impl :
  rules:Diag.rule list -> source:string -> Typedtree.structure -> Diag.t list
(** Run the expression-level rules (L1, L2, L3, L5, L6) requested in
    [rules] over an implementation. *)

val check_intf :
  rules:Diag.rule list -> source:string -> Typedtree.signature -> Diag.t list
(** Run L4 (if requested) over an interface. *)
