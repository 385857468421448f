(** The paper's greedy design heuristic (§3.2, "Solution approach").

    Repeatedly add the city-city MW link that most decreases the
    traffic-weighted mean stretch, until the budget is exhausted.  The
    paper runs this with a 2x-inflated budget to produce a candidate
    set for the exact ILP; at full scale the candidate set instead
    feeds {!Local_search}.

    Uses lazy re-evaluation (the benefit of a link only shrinks as the
    network grows), which keeps the full 112-city design in seconds. *)

type rule =
  | Absolute   (** pick the largest stretch decrease (the paper's wording) *)
  | Per_cost   (** largest decrease per tower spent *)

val candidates : Inputs.t -> (int * int) list
(** Pairs whose direct MW link is strictly shorter than their fiber
    path — the only links that can ever carry their own pair's
    traffic. *)

val design : ?rule:rule -> Inputs.t -> budget:int -> Topology.t
(** Greedy selection within [budget] towers.  Default rule
    [Per_cost]. *)

val candidate_set : ?rule:rule -> Inputs.t -> budget:int -> inflation:float -> (int * int) list
(** The paper's pruning step: run greedy at [inflation x budget] and
    return every link it selected, as candidates for exact/local
    optimization. *)

(** {2 Internals shared with {!Local_search}} *)

val weight_matrix : Inputs.t -> float array array
(** w_st = h_st / d_st — the per-pair objective weights. *)

val benefit : Inputs.t -> float array array -> float array array -> int * int -> float
(** [benefit inputs w d (i, j)]: decrease of the un-normalized
    objective sum w_st D_st when link (i,j) is added to metric [d]. *)

val design_ordered : ?rule:rule -> Inputs.t -> budget:int -> Topology.t * (int * int) list
(** Like {!design}, also returning the links in selection order — the
    order doubles as a quality ranking for seeding local search. *)
