(** Two-phase primal simplex over a dense tableau.

    Solves: minimize c.x subject to linear constraints and x >= 0.
    This is the computational core of the MILP solver that stands in
    for Gurobi (paper §3.2).  Intended problem sizes are hundreds to a
    few thousand variables/rows — comfortably within dense-tableau
    territory. *)

type op = Le | Ge | Eq

type row = { coeffs : (int * float) list; op : op; rhs : float }
(** Sparse constraint: sum coeffs.x (op) rhs. *)

type problem = {
  n_vars : int;
  objective : float array;    (** length n_vars; minimized *)
  rows : row list;
}

type solution = { x : float array; objective : float }

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded

val solve : problem -> status
(** Pivots are capped at a generous bound scaled by problem size,
    [2000 + 200 * (rows + columns)]; exceeding it raises [Failure]
    (indicates cycling, which Bland's rule should prevent). *)
