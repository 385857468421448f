(** Raster view of a {!Dem}: heights on a ~400 m grid.

    Stands in for the gridded SRTM/NED rasters of the paper (§3.1).
    Every query snaps to its ~400 m cell and evaluates the DEM at the
    cell's centre, so a height is a pure function of (DEM, cell): never
    of where inside the cell the query fell, nor of which pool domain
    asked.  The view memoizes nothing and takes no lock; concurrent
    queries share only one atomic evaluation counter.  The synthetic
    DEM's features are tens of km wide, so the snapping costs
    negligible accuracy. *)

type t

val create : Dem.t -> t

val dem : t -> Dem.t

val snap : Cisp_geo.Coord.t -> Cisp_geo.Coord.t
(** Center of the ~400 m cell containing the point: the position at
    which the view evaluates heights.  Exposed for the cell-center
    purity tests. *)

val surface_m : t -> Cisp_geo.Coord.t -> float
(** [Dem.surface_m] at the center of the cell containing the point. *)

val elevation_m : t -> Cisp_geo.Coord.t -> float
(** Ground elevation (no clutter), also at the cell center. *)

val surface_m_ll : t -> lat:float -> lon:float -> float
(** [surface_m] on raw coordinates, for callers that carry scalar
    lat/lon instead of a {!Cisp_geo.Coord.t}. *)

val elevation_m_ll : t -> lat:float -> lon:float -> float

val surface_samples :
  t -> lats:floatarray -> lons:floatarray -> out:floatarray -> lo:int -> hi:int -> unit
(** [surface_samples t ~lats ~lons ~out ~lo ~hi] writes
    [out.(i) <- surface_m_ll t ~lat:lats.(i) ~lon:lons.(i)] for
    [lo <= i <= hi]: the profile-sampling entry of {!Cisp_rf.Los}.
    Allocation comes only from the DEM evaluations themselves.  Raises
    [Invalid_argument] if the index range falls outside any buffer. *)

val stats : t -> int * int
(** [(0, evaluations)]: the number of heights queried so far, summed
    over all domains and exact at any pool width.  The first component
    counts memo hits and is always 0, since nothing is memoized. *)
