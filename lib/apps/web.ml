module Rng = Cisp_util.Rng

type obj = { size_bytes : int; level : int; origin : int }

type page = {
  objects : obj list;
  base_rtt_ms : float;
  server_ms : float;
  render_ms : float;
}

type scaling = { c2s : float; s2c : float }

let baseline = { c2s = 1.0; s2c = 1.0 }
let cisp = { c2s = 0.33; s2c = 0.33 }
let cisp_selective = { c2s = 0.33; s2c = 1.0 }

let small_object_threshold_bytes = 1460

let level_weights = [| 0.10; 0.40; 0.28; 0.15; 0.07 |]

let sample_level rng =
  let r = Rng.float rng 1.0 in
  let rec pick i acc =
    if i >= Array.length level_weights - 1 then i
    else begin
      let acc = acc +. level_weights.(i) in
      if r < acc then i else pick (i + 1) acc
    end
  in
  pick 0 0.0

(* The corpus is one fixed sample. *)
let seed = 2024

let generate ~count =
  let rng = Rng.create seed in
  List.init count (fun _ ->
      let n_objects = max 5 (int_of_float (Rng.lognormal rng (log 55.0) 0.7)) in
      let n_objects = min n_objects 400 in
      let origins = max 1 (min 30 (n_objects / 6)) in
      let objects =
        List.init n_objects (fun idx ->
            let level = if idx = 0 then 0 else max 1 (sample_level rng) in
            {
              size_bytes = max 200 (int_of_float (Rng.lognormal rng (log 7_000.0) 1.0));
              level;
              origin = (if idx = 0 then 0 else Rng.int rng origins);
            })
      in
      {
        objects;
        base_rtt_ms = Float.max 15.0 (Float.min 300.0 (Rng.lognormal rng (log 55.0) 0.5));
        server_ms = Rng.uniform rng 15.0 35.0;
        render_ms = Rng.uniform rng 70.0 140.0;
      })

let rtt page scaling = page.base_rtt_ms *. ((0.5 *. scaling.c2s) +. (0.5 *. scaling.s2c))

(* Extra round trips a response needs under slow-start windowing
   (initial window ~ 10 * 1460 B, doubling per RTT). *)
let window_rtts size_bytes =
  let iw = 14_600.0 in
  if float_of_int size_bytes <= iw then 0
  else int_of_float (Float.ceil (log (float_of_int size_bytes /. iw) /. log 2.0))

let parallel_conns = 8

let plt_ms page scaling =
  let r = rtt page scaling in
  let max_level =
    List.fold_left (fun acc o -> max acc o.level) 0 page.objects
  in
  let seen_origin = Hashtbl.create 8 in
  let total = ref 0.0 in
  for level = 0 to max_level do
    let at_level = List.filter (fun o -> o.level = level) page.objects in
    if at_level <> [] then begin
      (* Group by origin; each origin serves its objects over
         [parallel_conns] connections, one request-response per round. *)
      let by_origin = Hashtbl.create 8 in
      List.iter
        (fun o ->
          Hashtbl.replace by_origin o.origin (o :: Option.value (Hashtbl.find_opt by_origin o.origin) ~default:[]))
        at_level;
      let level_time =
        Hashtbl.fold
          (fun origin objs acc ->
            let setup =
              if Hashtbl.mem seen_origin origin then 0.0
              else begin
                Hashtbl.replace seen_origin origin ();
                (* DNS + TCP + TLS *)
                3.0 *. r
              end
            in
            let rounds = (List.length objs + parallel_conns - 1) / parallel_conns in
            let biggest = List.fold_left (fun m o -> max m o.size_bytes) 0 objs in
            let t =
              setup
              +. (float_of_int rounds *. (r +. page.server_ms))
              +. (float_of_int (window_rtts biggest) *. r)
              +. (float_of_int biggest /. 1.0e5 *. 40.0)
            in
            Float.max acc t)
          by_origin 0.0
      in
      total := !total +. level_time +. page.render_ms
    end
  done;
  !total

let object_load_times_ms page scaling =
  let r = rtt page scaling in
  let per_origin_count = Hashtbl.create 8 in
  List.map
    (fun o ->
      let k = Option.value (Hashtbl.find_opt per_origin_count o.origin) ~default:0 in
      Hashtbl.replace per_origin_count o.origin (k + 1);
      (* The first objects on an origin pay connection setup. *)
      let setup = if k < parallel_conns then 3.0 *. r else 0.0 in
      setup +. r
      +. (float_of_int (window_rtts o.size_bytes) *. r)
      +. page.server_ms
      +. (float_of_int o.size_bytes /. 1.0e5 *. 40.0))
    page.objects

let c2s_byte_fraction pages =
  let req = ref 0.0 and total = ref 0.0 in
  List.iter
    (fun page ->
      List.iter
        (fun o ->
          (* request headers + cookies *)
          let request = 1000.0 in
          req := !req +. request;
          total := !total +. request +. float_of_int o.size_bytes)
        page.objects)
    pages;
  if Float.equal !total 0.0 then 0.0 else !req /. !total
