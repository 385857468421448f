(** Mixed-integer linear model builder.

    A thin, safe layer over {!Simplex}: variables with upper bounds and
    integrality flags, linear constraints, and a minimization
    objective.  {!Milp.solve} consumes it. *)

type t
type var

val create : unit -> t

val add_var : ?ub:float -> ?integer:bool -> t -> var
(** A variable bounded below by 0.  Defaults: ub = infinity,
    continuous.  Raises [Invalid_argument] on ub < 0. *)

val binary : t -> var
(** Integer variable in \[0, 1\]. *)

val var_index : var -> int

type op = Le | Ge | Eq

val add_constraint : t -> (float * var) list -> op -> float -> unit

val set_objective : t -> (float * var) list -> unit
(** Minimized.  Terms on the same variable accumulate. *)

val to_lp : t -> extra:Simplex.row list -> Simplex.problem
(** LP relaxation: integrality dropped, bounds materialized as rows,
    plus [extra] branching rows. *)

val integer_vars : t -> var list

val value : float array -> var -> float
(** Read a variable out of a solution vector. *)
