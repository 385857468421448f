(** European cities with population over 300,000 (paper §6.2).

    Contiguous Europe of a geographical scale similar to the
    contiguous US: EU + UK + Switzerland + Norway + the Balkans,
    excluding Russia / Ukraine / Belarus / Turkey and Atlantic islands.
    Populations are city-proper, approximate. *)

val all : City.t list
(** Sorted by descending population. *)
