(** Spatial hash index over geographic points.

    Buckets points into fixed-size degree cells so that
    "all points within [radius] km of here" queries — the inner loop of
    tower-pair feasibility testing — run in time proportional to the
    local density instead of the registry size.  Query windows wrap
    across the +/-180 antimeridian, so clusters straddling it see each
    other.  The index is built once and read-only afterwards: each
    cell is a flat array under a packed int key, so queries allocate
    nothing per probe. *)

type 'a t

val of_list : cell_deg:float -> (Coord.t * 'a) list -> 'a t
(** [of_list ~cell_deg pts] indexes [pts] in square cells of
    [cell_deg] degrees on a side.  Within a cell, points keep reverse
    list order (the most recently listed first).  Raises
    [Invalid_argument] if [cell_deg < 0.001] (packed cell keys need
    bounded indices). *)

val iter_nearby : 'a t -> Coord.t -> radius_km:float -> (Coord.t -> 'a -> unit) -> unit
(** Calls [f] on every stored point within [radius_km] great-circle
    distance of the query point, allocating nothing.  Visits cells row
    by row and column by column, each cell's points in their stored
    order: the visit order is a pure function of the indexed list. *)
