(** Checked-in suppression list for lint diagnostics.

    One entry per line: [RULE FILE SYMBOL  # reason]

    - [RULE] is [L1]..[L15] or [*] for any rule;
    - [FILE] matches the diagnostic's source path exactly or as a
      path suffix at a ['/'] boundary ([*] for any file);
    - [SYMBOL] is the enclosing value / signature-item name the
      diagnostic reports, or [*];
    - everything after [#] is a human-readable justification (ignored
      but strongly encouraged).

    Blank lines and pure comment lines are skipped. *)

type entry = {
  rule : Diag.rule option;  (** [None] = any rule *)
  file : string;
  symbol : string;
  reason : string;
  lineno : int;  (** 1-based line in the source file, for pruning *)
}

type t = entry list

val empty : t
val parse : file:string -> string -> (t, string) result
val load : string -> (t, string) result
val matches : t -> Diag.t -> bool

val filter : t -> Diag.t list -> Diag.t list * Diag.t list
(** [(kept, suppressed)]. *)

val to_string : entry -> string
(** The entry in file syntax, for reporting. *)

val stale : t -> Diag.t list -> entry list
(** Entries matching none of the given diagnostics.  Pass the
    {e pre-suppression} list: an entry is live exactly when it
    suppresses something. *)

val prune : path:string -> entry list -> (int, string) result
(** Remove the given (stale) entries' lines from the checked-in file,
    keeping comments, blanks and live entries byte-identical; returns
    how many lines were dropped. *)
