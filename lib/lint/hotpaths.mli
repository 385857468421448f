(** The [lint.hotpaths] registry: canonical names held to the L10
    zero-alloc contract without a [@cisp.zero_alloc] attribute at the
    definition — the annotation channel for entry points whose source
    should stay free of analyzer vocabulary.

    One entry per line: a canonical name (analyzer spelling, mangling
    expanded), then an optional [# reason] comment.  Names matching no
    node are ignored by the rule, so the registry may lead the code it
    contracts. *)

type entry = {
  name : string;  (** canonical name, e.g. ["Cisp_rf.Los.check_cached"] *)
  line : int;  (** 1-based, for driver messages *)
  reason : string;  (** text after [#], [""] if none *)
}

val parse_string : string -> (entry list, string) result
(** First malformed line wins the error; blank/comment lines skip. *)

val load : string -> (entry list, string) result

val names : entry list -> string list
