(* Effect vocabulary shared by the interprocedural passes.

   A summary is a point in a finite join-semilattice: maps only grow,
   witness sites only shrink (towards the smallest (file, line, col)),
   booleans only flip to [true] — so the fixpoint in {!Summary}
   terminates on any call graph, cyclic ones included. *)

module SS = Set.Make (String)
module SM = Map.Make (String)
module IM = Map.Make (Int)

(* ------------------------------------------------------------------ *)
(* Witness sites                                                       *)
(* ------------------------------------------------------------------ *)

type site = { file : string; line : int; col : int }

let site_of_loc (loc : Location.t) =
  let p = loc.Location.loc_start in
  {
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
  }

let loc_of_site s =
  let pos =
    {
      Lexing.pos_fname = s.file;
      pos_lnum = s.line;
      pos_bol = 0;
      pos_cnum = s.col;
    }
  in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = false }

let compare_site a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c else Int.compare a.col b.col

let min_site a b = if compare_site a b <= 0 then a else b
let site_to_string s = Printf.sprintf "%s:%d" s.file s.line

module Read_site = struct
  type t = string * site (* what is read, where *)

  let compare (da, sa) (db, sb) =
    let c = compare_site sa sb in
    if c <> 0 then c else String.compare da db
end

module RS = Set.Make (Read_site)

(* ------------------------------------------------------------------ *)
(* Handler masks                                                       *)
(* ------------------------------------------------------------------ *)

type mask = Catch_all | Catch of SS.t

let mask_none = Catch SS.empty

let compose_mask a b =
  match (a, b) with
  | Catch_all, _ | _, Catch_all -> Catch_all
  | Catch x, Catch y -> Catch (SS.union x y)

let mask_catches mask name =
  match mask with Catch_all -> true | Catch names -> SS.mem name names

let mask_raises mask raises =
  match mask with
  | Catch_all -> SM.empty
  | Catch names -> SM.filter (fun n _ -> not (SS.mem n names)) raises

(* ------------------------------------------------------------------ *)
(* The effect lattice                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  raises : site SM.t;
      (* exception constructor name (bare, as handler patterns see it)
         -> smallest witness site *)
  nondet : RS.t; (* ambient-nondeterminism reads, each with its site *)
  io : bool;
  locks : bool; (* takes a mutex DIRECTLY — never propagated *)
  mut_global : site SM.t; (* canonical name of module-level state -> witness *)
  mut_param : site IM.t; (* 0-based own-parameter index -> witness *)
  mut_free : (string * site) SM.t;
      (* free local captured from an enclosing scope, keyed by
         [Ident.unique_name] -> (display name, witness) *)
  allocs : site SM.t;
      (* heap-allocation kind tag ("closure", "boxed float", "tuple",
         "list", ...) -> smallest witness site.  Models NATIVE-code
         behaviour: float/Int64 arithmetic held in registers, constants
         statically allocated, and raise paths are all exempt (see the
         tables below and DESIGN.md §7d). *)
  poly_cmp : RS.t;
      (* polymorphic compare/hash uses that have a monomorphic
         replacement: (description, site).  Consumed by L12 via
         pipeline reachability, like [nondet]/L9. *)
  acquires : site SM.t;
      (* canonical mutex identity -> smallest acquisition site, for
         every lock this function may take, directly or transitively.
         Unlike [locks] (a direct-only damping bit) this DOES
         propagate: a caller holding lock A that calls something which
         eventually takes lock B has established the order A -> B,
         however deep the call chain.  Consumed by L13. *)
  blocks : site SM.t;
      (* blocking-call kind ("mutex acquisition of `X'", "condition
         wait", "Domain.join", "io", ...) -> smallest witness site.
         Propagates, except through scheduling boundaries (edges into
         [Pool] combinators / [Domain.spawn] closures, see
         {!Callgraph}).  Consumed by L14. *)
  float_merges : RS.t;
      (* order-sensitive float accumulation over an unordered source
         (Hashtbl traversal, ad-hoc [Domain.join] merges):
         (description, site).  Consumed by L15 via pipeline
         reachability, like [nondet]/L9. *)
}

let bottom =
  {
    raises = SM.empty;
    nondet = RS.empty;
    io = false;
    locks = false;
    mut_global = SM.empty;
    mut_param = IM.empty;
    mut_free = SM.empty;
    allocs = SM.empty;
    poly_cmp = RS.empty;
    acquires = SM.empty;
    blocks = SM.empty;
    float_merges = RS.empty;
  }

let min_w _ a b = Some (min_site a b)

let union a b =
  {
    raises = SM.union min_w a.raises b.raises;
    nondet = RS.union a.nondet b.nondet;
    io = a.io || b.io;
    locks = a.locks || b.locks;
    mut_global = SM.union min_w a.mut_global b.mut_global;
    mut_param = IM.union min_w a.mut_param b.mut_param;
    mut_free =
      SM.union
        (fun _ (na, xa) (_, xb) -> Some (na, min_site xa xb))
        a.mut_free b.mut_free;
    allocs = SM.union min_w a.allocs b.allocs;
    poly_cmp = RS.union a.poly_cmp b.poly_cmp;
    acquires = SM.union min_w a.acquires b.acquires;
    blocks = SM.union min_w a.blocks b.blocks;
    float_merges = RS.union a.float_merges b.float_merges;
  }

let site_eq a b = compare_site a b = 0

let equal a b =
  SM.equal site_eq a.raises b.raises
  && RS.equal a.nondet b.nondet
  && Bool.equal a.io b.io && Bool.equal a.locks b.locks
  && SM.equal site_eq a.mut_global b.mut_global
  && IM.equal site_eq a.mut_param b.mut_param
  && SM.equal
       (fun (na, xa) (nb, xb) -> String.equal na nb && site_eq xa xb)
       a.mut_free b.mut_free
  && SM.equal site_eq a.allocs b.allocs
  && RS.equal a.poly_cmp b.poly_cmp
  && SM.equal site_eq a.acquires b.acquires
  && SM.equal site_eq a.blocks b.blocks
  && RS.equal a.float_merges b.float_merges

let drop_mut t =
  { t with mut_global = SM.empty; mut_param = IM.empty; mut_free = SM.empty }

let drop_allocs t = { t with allocs = SM.empty }

(* ------------------------------------------------------------------ *)
(* External effect tables                                              *)
(*                                                                     *)
(* Names are post-canonicalization: the [Stdlib.] prefix is stripped   *)
(* and dune's [Lib__Module] mangling is expanded to [Lib.Module], so   *)
(* the tables read like source code.  Unknown externals contribute     *)
(* nothing (the analysis is deliberately optimistic about code it      *)
(* cannot see; the repo's own code is all visible).                    *)
(* ------------------------------------------------------------------ *)

(* Partial stdlib functions and the (bare) exception they raise. *)
let ext_raises = function
  | "List.hd" | "List.tl" | "List.nth" | "int_of_string" | "float_of_string"
  | "failwith" ->
      Some "Failure"
  | "List.find" | "List.assoc" | "List.assq" | "Hashtbl.find" | "String.index"
  | "String.rindex" | "Sys.getenv" | "Unix.getenv" ->
      Some "Not_found"
  | "Option.get" | "bool_of_string" | "invalid_arg" | "Char.chr" ->
      Some "Invalid_argument"
  | "Stack.pop" | "Stack.top" | "Queue.pop" | "Queue.take" | "Queue.peek" ->
      Some "Empty"
  | _ -> None

(* Which positional argument an external call mutates.  [Array.set] /
   [Bytes.set] (and the [a.(i) <- v] sugar that compiles to them) are
   deliberately absent: writing a slot you own is the pool's documented
   per-index ownership convention, and flagging it would outlaw every
   legitimate [parallel_for] fill loop. *)
let ext_mut_arg name =
  if String.starts_with ~prefix:"Buffer.add" name then Some 0
  else
    match name with
    | ":=" | "incr" | "decr" | "Hashtbl.add" | "Hashtbl.replace"
    | "Hashtbl.remove" | "Hashtbl.reset" | "Hashtbl.clear" | "Array.fill"
    | "Bytes.fill" | "Queue.clear" | "Buffer.clear" | "Buffer.reset"
    | "Buffer.truncate" ->
        Some 0
    | "Hashtbl.filter_map_inplace" | "Queue.add" | "Queue.push" | "Stack.push"
    | "Array.sort" | "Array.stable_sort" | "Array.fast_sort" ->
        Some 1
    | "Array.blit" | "Bytes.blit" -> Some 2
    | _ -> None

(* Reads of ambient nondeterminism: wall clocks, PRNG singletons,
   environment, domain identity, and hash-table iteration order (the
   bucket layout depends on insertion history, so [iter]/[fold]/
   [to_seq] orders are not a function of the table's contents). *)
let ext_nondet name =
  if String.starts_with ~prefix:"Random." name then Some name
  else if String.starts_with ~prefix:"Hashtbl.to_seq" name then
    Some (name ^ " iteration order")
  else
    match name with
    | "Sys.time" | "Unix.time" | "Unix.gettimeofday" | "Sys.getenv"
    | "Sys.getenv_opt" | "Unix.getenv" | "Domain.self"
    | "Domain.recommended_domain_count" ->
        Some name
    | "Hashtbl.iter" | "Hashtbl.fold" -> Some (name ^ " iteration order")
    | _ -> None

let ext_locks = function
  | "Mutex.lock" | "Mutex.try_lock" | "Mutex.protect" -> true
  | _ -> false

(* Heap allocation performed by a stdlib call, as a short kind tag.
   Tuned for NATIVE code: float returns/arguments of direct calls stay
   in registers, Int64/Int32 intermediates in straight-line code stay
   unboxed, captureless closures and constants are statically
   allocated — so none of those appear here.  Failure paths
   ([failwith], [invalid_arg], [raise]) are deliberately exempt: a
   zero-alloc contract speaks about the non-raising path.  Unknown
   externals contribute nothing (optimistic, like the other tables). *)
let ends_with_opt name =
  String.length name > 4 && String.ends_with ~suffix:"_opt" name

let ext_alloc name =
  let pre p = String.starts_with ~prefix:p name in
  if
    pre "List.map" || pre "List.filter" || pre "List.concat"
    || pre "List.sort" || pre "List.rev" || pre "List.of_seq"
    || pre "List.init" || pre "List.append" || pre "List.split"
    || pre "List.combine" || pre "List.flatten" || pre "List.merge"
  then Some "list"
  else if
    pre "Array.make" || pre "Array.create" || pre "Array.init"
    || pre "Array.append" || pre "Array.concat" || pre "Array.sub"
    || pre "Array.copy" || pre "Array.of_" || pre "Array.to_list"
    || pre "Array.map" || pre "Array.split" || pre "Array.combine"
    || pre "Float.Array.create" || pre "Float.Array.make"
    || pre "Float.Array.init" || pre "Float.Array.append"
    || pre "Float.Array.concat" || pre "Float.Array.sub"
    || pre "Float.Array.copy" || pre "Float.Array.of_"
    || pre "Float.Array.map"
  then Some "array"
  else if
    pre "String.make" || pre "String.init" || pre "String.sub"
    || pre "String.concat" || pre "String.cat" || pre "String.map"
    || pre "String.split" || pre "String.trim" || pre "String.escaped"
    || pre "String.uppercase" || pre "String.lowercase"
    || pre "Bytes.make" || pre "Bytes.create" || pre "Bytes.sub"
    || pre "Bytes.copy" || pre "Bytes.of_" || pre "Bytes.to_"
    || pre "Printf.sprintf" || pre "Format.asprintf"
    || pre "string_of_" || pre "Buffer.contents" || pre "Buffer.sub"
    || pre "Buffer.to_bytes"
  then Some "string building"
  else if
    pre "Hashtbl.create" || pre "Hashtbl.copy" || pre "Hashtbl.of_seq"
    || pre "Hashtbl.add" || pre "Hashtbl.replace" || pre "Queue.create"
    || pre "Queue.copy" || pre "Queue.add" || pre "Queue.push"
    || pre "Stack.create" || pre "Stack.push" || pre "Buffer.create"
    || pre "Buffer.add" || pre "Atomic.make" || pre "Mutex.create"
    || pre "Condition.create" || pre "Semaphore." || pre "Domain.spawn"
    || pre "Dynarray."
  then Some "container"
  else if
    pre "Option.map" || pre "Option.bind" || pre "Option.some"
    || pre "Option.join" || pre "Option.to_list" || pre "Sys.getenv_opt"
    || pre "int_of_string_opt" || pre "float_of_string_opt"
    || pre "bool_of_string_opt"
    || (pre "List." && ends_with_opt name)
    || (pre "Array." && ends_with_opt name)
    || (pre "Hashtbl." && ends_with_opt name)
    || (pre "String." && ends_with_opt name)
    || (pre "Float.Array." && ends_with_opt name)
  then Some "option"
  else if name = "ref" then Some "ref"
  else if name = "^" then Some "string building"
  else if name = "@" then Some "list"
  else if pre "Seq." then Some "container"
  else None

(* Calls whose Nth argument gets boxed when instantiated at [float]
   (the argument is stored into a non-flat heap slot). *)
let ext_boxes_float_arg = function
  | "ref" | "Atomic.make" | "Option.some" -> Some 0
  | ":=" | "Atomic.set" | "Queue.add" | "Queue.push" | "Stack.push" -> Some 1
  | "Hashtbl.add" | "Hashtbl.replace" -> Some 2
  | _ -> None

(* Polymorphic structural comparison / hashing primitives.  Their
   *direct, fully-applied* uses at immediate types are specialized by
   the compiler; what L12 cares about is the primitive passed as a
   first-class value (e.g. to [List.sort]) or applied at a float-heavy
   type, where the runtime walks tags byte by byte. *)
let ext_poly_cmp = function
  | "compare" | "min" | "max" | "=" | "<>" | "<" | ">" | "<=" | ">="
  | "Hashtbl.hash" | "Hashtbl.seeded_hash" ->
      true
  | _ -> false

let ext_io name =
  String.starts_with ~prefix:"print_" name
  || String.starts_with ~prefix:"prerr_" name
  || String.starts_with ~prefix:"output" name
  || String.starts_with ~prefix:"In_channel." name
  || String.starts_with ~prefix:"Out_channel." name
  ||
  match name with
  | "Printf.printf" | "Printf.eprintf" | "Printf.fprintf" | "Format.printf"
  | "Format.eprintf" | "Format.fprintf" | "print_newline" | "read_line"
  | "read_int" | "read_int_opt" ->
      true
  | _ -> false

(* Calls that may park the calling domain, as a short kind tag for L14.
   [Mutex.try_lock] is absent on purpose (it fails instead of waiting),
   and so are the handful of [Unix] entry points that are plain reads
   of process state — the telemetry clock ([Unix.gettimeofday]) must
   stay callable under [state.mutex]. *)
let ext_blocking name =
  match name with
  | "Mutex.lock" | "Mutex.protect" -> Some "mutex acquisition"
  | "Condition.wait" -> Some "condition wait"
  | "Domain.join" -> Some "Domain.join"
  | "Unix.gettimeofday" | "Unix.time" | "Unix.getenv" | "Unix.getpid" -> None
  (* channel open/close/flush block on the filesystem but are not
     [ext_io] (L9 treats them as handles, not reads) *)
  | "open_out" | "open_out_bin" | "open_out_gen" | "open_in" | "open_in_bin"
  | "open_in_gen" | "close_out" | "close_out_noerr" | "close_in"
  | "close_in_noerr" | "flush" | "input_line" ->
      Some "io"
  | _ ->
      if ext_io name then Some "io"
      else if String.starts_with ~prefix:"Unix." name then
        Some "Unix system call"
      else None
