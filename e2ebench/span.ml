(* In-memory span recorder for the traced run.

   A span is one call into a pipeline layer: its name, start, end, the
   span that was open when it began, and the GC work done while it
   ran.  Spans stay in memory and are written out once, at the end of
   the run, so recording costs one branch when tracing is off and a
   clock read plus a [Gc.quick_stat] at each boundary when it is on.
   Spans are recorded from the main domain only: they wrap top-level
   library calls, never pool bodies.  Their GC counts are therefore the
   calling domain's; allocation inside pool workers is not included. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  start_s : float;
  end_s : float;
  minor_words : float;
  major_words : float;
  major_collections : int;
}

let on = ref false
let recorded : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let duration s = s.end_s -. s.start_s

let record name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let outer = !open_ids in
    open_ids := id :: outer;
    let g0 = Gc.quick_stat () and minor0 = Gc.minor_words () in
    let start_s = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let end_s = Unix.gettimeofday () in
        let g1 = Gc.quick_stat () and minor1 = Gc.minor_words () in
        open_ids := outer;
        recorded :=
          {
            id;
            parent;
            name;
            start_s;
            end_s;
            minor_words = minor1 -. minor0;
            major_words = g1.Gc.major_words -. g0.Gc.major_words;
            major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          }
          :: !recorded)
  end

(* Every recorded span, in start order. *)
let all () = List.rev !recorded

let children spans id = List.filter (fun s -> s.parent = id) spans

(* Duration minus the part covered by child spans (children never
   overlap: they run one after another on the recording domain). *)
let self_s spans s =
  duration s -. List.fold_left (fun acc c -> acc +. duration c) 0.0 (children spans s.id)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* One JSON object per span, one per line, every line carrying the run
   id; times are seconds since [origin]. *)
let write_jsonl path ~run_id ~origin spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            {|{"run":"%s","id":%d,"parent":%d,"name":"%s","start_s":%s,"end_s":%s,"self_s":%s,"minor_words":%s,"major_words":%s,"major_collections":%d}|}
            run_id s.id s.parent s.name
            (json_float (s.start_s -. origin))
            (json_float (s.end_s -. origin))
            (json_float (self_s spans s))
            (json_float s.minor_words) (json_float s.major_words) s.major_collections;
          output_char oc '\n')
        spans)
