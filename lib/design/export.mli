(** GeoJSON export of designed networks.

    The paper ships map figures (Fig 3, Fig 8).  This module produces
    the underlying geodata: drop the output into any GeoJSON viewer to
    reproduce the figures. *)

val json_escape : string -> string
(** RFC 8259 string escaping: double quote, backslash, and every
    control character below 0x20 (the named short escapes where they
    exist, [\u00XX] otherwise).  City names flow into GeoJSON through
    this. *)

val topology_geojson : Inputs.t -> Topology.t -> string
(** FeatureCollection: one point per site (name, population) and one
    LineString per built MW link, with properties [medium = "mw"],
    link length and stretch.  Site pairs that ride fiber are omitted
    (the paper draws only a few illustrative fiber paths). *)

val topology_with_plan_geojson : Inputs.t -> Topology.t -> Capacity.plan -> string
(** Like {!topology_geojson} with each link's provisioned parallel
    series count as a [series] property — the blue/green/red coloring
    of Fig 3. *)
