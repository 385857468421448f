module Hops = Cisp_towers.Hops
module City = Cisp_data.City

type t = {
  sites : City.t array;
  geodesic_km : float array array;
  mw_km : float array array;
  mw_cost : int array array;
  mw_links : Hops.link option array array;
  fiber_km : float array array;
  traffic : Cisp_traffic.Matrix.t;
}

let n_sites t = Array.length t.sites

let of_hops ~hops ~fiber ~traffic =
  let sites = hops.Hops.sites in
  let n = Array.length sites in
  let links = Hops.all_links hops in
  let mw_km = Array.make_matrix n n infinity in
  let mw_cost = Array.make_matrix n n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match links.(i).(j) with
      | Some l ->
        mw_km.(i).(j) <- l.Hops.distance_km;
        mw_cost.(i).(j) <- l.Hops.tower_count
      | None -> ()
    done
  done;
  {
    sites;
    geodesic_km = City.geodesic_matrix sites;
    mw_km;
    mw_cost;
    mw_links = links;
    fiber_km = Cisp_fiber.Conduit.latency_matrix fiber;
    traffic;
  }

let synthetic ~sites ~mw_stretch ~mw_cost_per_km ~fiber_stretch ~traffic =
  let n = Array.length sites in
  let geodesic_km = City.geodesic_matrix sites in
  let mw_km = Array.make_matrix n n infinity in
  let mw_cost = Array.make_matrix n n 0 in
  let fiber_km = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        mw_km.(i).(j) <- geodesic_km.(i).(j) *. mw_stretch;
        mw_cost.(i).(j) <- max 1 (int_of_float (Float.ceil (geodesic_km.(i).(j) *. mw_cost_per_km)));
        fiber_km.(i).(j) <- geodesic_km.(i).(j) *. fiber_stretch
      end
    done
  done;
  {
    sites;
    geodesic_km;
    mw_km;
    mw_cost;
    mw_links = Array.make_matrix n n None;
    fiber_km;
    traffic;
  }

let validate t =
  let n = Array.length t.sites in
  let check_square name (m : 'a array array) =
    if Array.length m <> n || Array.exists (fun r -> Array.length r <> n) m then
      Error (name ^ ": not square")
    else Ok ()
  in
  let ( >>= ) r f = Result.bind r (fun () -> f ()) in
  check_square "geodesic" t.geodesic_km
  >>= fun () -> check_square "mw" t.mw_km
  >>= fun () -> check_square "fiber" t.fiber_km
  >>= fun () -> check_square "traffic" t.traffic
  >>= fun () ->
  let sym_ok m =
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if Float.abs (m.(i).(j) -. m.(j).(i)) > 1e-6 *. (1.0 +. Float.abs m.(i).(j)) then
          ok := false
      done
    done;
    !ok
  in
  if not (sym_ok t.geodesic_km) then Error "geodesic: asymmetric"
  else if not (sym_ok t.fiber_km) then Error "fiber: asymmetric"
  else if not (sym_ok t.traffic) then Error "traffic: asymmetric"
  else begin
    let neg = ref false in
    Array.iter (Array.iter (fun v -> if v < 0.0 then neg := true)) t.traffic;
    if !neg then Error "traffic: negative entry" else Ok ()
  end

let restrict t ~indices =
  let k = Array.length indices in
  let slice m = Array.init k (fun a -> Array.init k (fun b -> m.(indices.(a)).(indices.(b)))) in
  let slice_links =
    Array.init k (fun a ->
        Array.init k (fun b ->
            Option.map
              (fun l -> { l with Hops.src = a; dst = b })
              t.mw_links.(indices.(a)).(indices.(b))))
  in
  {
    sites = Array.map (fun i -> t.sites.(i)) indices;
    geodesic_km = slice t.geodesic_km;
    mw_km = slice t.mw_km;
    mw_cost = slice t.mw_cost;
    mw_links = slice_links;
    fiber_km = slice t.fiber_km;
    traffic = Cisp_traffic.Matrix.normalize (slice t.traffic);
  }
