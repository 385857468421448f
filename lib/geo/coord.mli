(** Geographic coordinates (WGS-84 style lat/lon, degrees). *)

type t = { lat : float; lon : float }

val make : lat:float -> lon:float -> t
(** [make ~lat ~lon] validates lat in \[-90, 90\] and normalizes lon to
    (-180, 180\].  Raises [Invalid_argument] on out-of-range latitude. *)

val normalize_lon : float -> float
(** The longitude normalization [make] applies, exposed for callers
    that work on raw scalar lat/lon (profile sampling, grid cell
    wrapping) and must agree bit-for-bit with [make]. *)

val lat : t -> float
val lon : t -> float

val equal : t -> t -> bool
val compare : t -> t -> int

type bbox = { min_lat : float; max_lat : float; min_lon : float; max_lon : float }

val bbox_of_points : t list -> bbox
(** Smallest bounding box containing all points (no antimeridian
    handling; fine for the contiguous US / Europe).  Raises
    [Invalid_argument] on the empty list. *)

val expand_bbox : bbox -> margin_deg:float -> bbox
