(** Population-center construction (paper §4).

    "We coalesce suburbs and cities within 50 km of each other, ending
    up with 120 population centers."  Cities whose pairwise distance is
    under the threshold are merged transitively (union-find); each
    resulting center sits at the population-weighted centroid, carries
    the summed population, and is named after its largest member. *)

val coalesce : City.t list -> City.t list
(** Merge at the paper's 50 km.  Result sorted by descending
    population. *)

val us_population_centers : unit -> City.t list
(** The paper's ~120 contiguous-US population centers: top-200 cities
    coalesced at 50 km. *)

val eu_population_centers : unit -> City.t list
(** European centers: all >300k cities coalesced at 50 km. *)
