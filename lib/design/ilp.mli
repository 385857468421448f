(** Exact topology design: the paper's flow-based ILP (§3.2).

    Binary build variables x_l over candidate MW links; per-commodity
    flow variables over MW and fiber arc copies; objective
    sum_st (h_st / d_st) sum_arcs len * f; constraints: flow
    conservation, budget, and only built links carry flow.

    Two paper-faithful reductions keep the model tractable:

    - {b Oracle pruning} (optimality-preserving): an arc is dropped
      for a commodity when even a geodesic-lower-bound path through it
      cannot beat the commodity's direct fiber path, and a whole
      commodity is dropped when no MW arc survives for it (its flow
      is the constant direct-fiber term).
    - {b Relaxed flows}: with capacity out of the formulation (the
      paper provisions bandwidth in step 3), the flow polytope for
      fixed integral x is integral, so flow variables can be
      continuous and branching happens on x only — exactly the
      structure a commercial MILP solver exploits.

    The returned topology is exact for the candidate set given. *)

type stats = {
  commodities : int;         (** after pruning *)
  flow_vars : int;
  nodes_explored : int;
  lp_solves : int;
  milp_status : [ `Optimal | `Feasible_gap of float | `Infeasible | `Unbounded | `No_solution ];
}

val design :
  ?time_limit_s:float ->
  ?strong_linking:bool ->
  ?oracle_pruning:bool ->
  Inputs.t ->
  budget:int ->
  candidates:(int * int) list ->
  Topology.t * stats
(** Exact selection among [candidates] within [budget], unless the
    search stops early ([time_limit_s], see {!Cisp_lp.Milp.solve}).
    [strong_linking] (default false) uses one linking row per
    commodity-link instead of one aggregated row per link: tighter LP
    bounds, bigger tableaux.  [oracle_pruning] (default
    true) can be disabled to measure how much the paper's
    variable-elimination observation buys (see the ablation bench). *)

(** {2 Shared formulation} *)

type formulation = {
  model : Cisp_lp.Model.t;
  x : Cisp_lp.Model.var array;   (** build variables, aligned with [cands] *)
  cands : (int * int) array;
  f_commodities : int;
  f_flow_vars : int;
}

val formulate :
  ?strong_linking:bool ->
  ?oracle_pruning:bool ->
  Inputs.t ->
  budget:int ->
  candidates:(int * int) list ->
  formulation
(** The MILP model itself — also consumed by {!Lp_rounding}. *)
