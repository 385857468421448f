(** Swap-based local improvement over a greedy topology.

    At the paper's full scale the exact ILP is out of reach for any
    solver in hours (that is Fig 2a's point); the paper hands the
    greedy candidate set to Gurobi.  Our substitution (documented in
    DESIGN.md) polishes the greedy solution with first-improvement
    swaps instead: repeatedly try removing one of the weakest built
    links and adding a better candidate within budget, verified
    optimal against the exact ILP at small scales (Fig 2b). *)

val improve :
  Inputs.t ->
  budget:int ->
  candidates:(int * int) list ->
  Topology.t ->
  Topology.t
(** [improve inputs ~budget ~candidates topo] returns a topology with
    objective <= the input's.  At most 3 sweeps; each considers the 20
    weakest built links for removal. *)
