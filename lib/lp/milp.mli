(** Branch-and-bound mixed-integer solver (the Gurobi substitute).

    Solves the model's LP relaxation with {!Simplex}, branches on the
    most fractional integer variable, explores nodes best-bound first,
    and prunes by incumbent.  Exact up to the numeric tolerance when it
    terminates with [Optimal]; budget-limited runs report the best
    incumbent and the residual gap. *)

type outcome = {
  status : [ `Optimal | `Feasible_gap of float | `Infeasible | `Unbounded | `No_solution ];
  x : float array option;       (** best integral solution found *)
  objective : float option;
  nodes_explored : int;
  lp_solves : int;
}

val solve : ?time_limit_s:float -> Model.t -> outcome
(** Search stops at [time_limit_s] seconds of processor time (default
    120), after 200,000 nodes, or at a relative gap of 1e-6, whichever
    comes first.  A stopped search reports its best incumbent — the
    rounding dive plants one before the search starts whenever the
    problem is feasible — and the residual gap. *)

val solve_relaxation : Model.t -> Simplex.status
(** Just the root LP relaxation (used by the LP-rounding baseline). *)
