module Coord = Cisp_geo.Coord

(* ~0.0036 degrees: about 400 m in latitude. *)
let quantum = 276.0

let[@inline] quantize v = Float.round (v *. quantum)

let snap p =
  Coord.make
    ~lat:(quantize (Coord.lat p) /. quantum)
    ~lon:(quantize (Coord.lon p) /. quantum)

type t = { dem : Dem.t; evaluations : int Atomic.t }

let create dem = { dem; evaluations = Atomic.make 0 }
let dem t = t.dem

(* The DEM surface (or, with [~ground], bare elevation) at the centre
   of cell (qi, qj): a pure function of (DEM, cell), whichever query or
   domain asks.  Taking the cell as two ints keeps the callers' floats
   unboxed across the (non-inlined) call. *)
let[@cisp.alloc_ok "one DEM evaluation: its coordinate, temporaries and boxed result"] cell_value
    ~ground dem qi qj =
  let lat = Float.min 90.0 (Float.max (-90.0) (float_of_int qi /. quantum)) in
  let lon = float_of_int qj /. quantum in
  let p = Coord.make ~lat ~lon in
  if ground then Dem.elevation_m dem p else Dem.surface_m dem p

let[@inline] cell_index v = int_of_float (quantize v)

let query ~ground t ~lat ~lon =
  Atomic.incr t.evaluations;
  cell_value ~ground t.dem (cell_index lat) (cell_index lon)

let surface_m_ll t ~lat ~lon = query ~ground:false t ~lat ~lon
let elevation_m_ll t ~lat ~lon = query ~ground:true t ~lat ~lon
let surface_m t p = surface_m_ll t ~lat:(Coord.lat p) ~lon:(Coord.lon p)
let elevation_m t p = elevation_m_ll t ~lat:(Coord.lat p) ~lon:(Coord.lon p)

let[@cisp.zero_alloc] surface_samples t ~lats ~lons ~out ~lo ~hi =
  if
    lo < 0 || hi >= Float.Array.length lats
    || hi >= Float.Array.length lons
    || hi >= Float.Array.length out
  then invalid_arg "Dem_cache.surface_samples: index range outside buffers";
  if hi >= lo then ignore (Atomic.fetch_and_add t.evaluations (hi - lo + 1));
  for i = lo to hi do
    let qi = cell_index (Float.Array.get lats i) in
    let qj = cell_index (Float.Array.get lons i) in
    Float.Array.unsafe_set out i (cell_value ~ground:false t.dem qi qj)
  done

let stats t = (0, Atomic.get t.evaluations)
