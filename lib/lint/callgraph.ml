(* Cross-module call graph over every loaded [.cmt]/[.cmti].

   Phase 1 of the interprocedural analysis: one walk over each typed
   AST produces

   - a node per structure-level binding ([Top]), per let-bound local
     function ([Local]) and per inline lambda ([Lambda], remembering
     which callee the lambda was handed to — its {e guard});
   - direct effects per node (see {!Effects});
   - call edges annotated with the exception-handler mask in force at
     the call site and with the classification of every argument, so
     {!Summary} can map a callee's parameter mutations back onto the
     caller's world;
   - every [Cisp_util.Pool] combinator call site together with the
     closure nodes handed to it (consumed by the L7 rule);
   - the set of names exported by some [.cmti] (consumed by L8).

   Naming: dune's wrapped-library mangling ([Cisp_util__Pool]) is
   expanded to source notation ([Cisp_util.Pool]), unit-local module
   aliases ([module Grid = Cisp_geo.Grid]) are chased, and the
   [Stdlib.] prefix is stripped, so one canonical spelling identifies
   a definition across compilation units. *)

open Typedtree
module SS = Effects.SS
module SM = Effects.SM

type callee = Internal of int | External of string
type nkind = Top | Local | Lambda of { guard : callee option }

type argc =
  | AGlobal of string  (* module-level state, canonical name *)
  | AParam of int  (* the caller's own parameter *)
  | AFreeLocal of string * string  (* captured from an enclosing scope *)
  | ALocal  (* bound inside the caller: mutation stays private *)
  | AOther  (* anything unclassifiable *)

type edge = {
  mutable callee : callee;
  e_mask : Effects.mask;
  args : argc array;
  call_site : Effects.site;
  e_held : SS.t;
      (* canonical mutex identities syntactically held at the call
         site (the caller's own acquisitions; the node's [entry_held]
         is added on top by the rules) *)
  mutable damp_mut : bool;
      (* the callee is a lambda whose guard takes a lock: its
         mutations are protected, do not fold them into the caller *)
  mutable boundary : bool;
      (* the callee runs on another domain (a closure handed to a
         [Pool] combinator or [Domain.spawn]): blocking and lock
         acquisitions do not fold into the caller — the pool-site
         checks own them instead *)
}

type node = {
  id : int;
  name : string;  (* canonical for [Top], dotted path otherwise *)
  symbol : string;  (* enclosing top-level value, for diagnostics *)
  unit_source : string;
  def_site : Effects.site;
  kind : nkind;
  is_fun : bool;
  mutable params_idx : int SM.t;  (* Ident.unique_name -> 0-based index *)
  mutable binders : SS.t;  (* Ident.unique_names bound inside *)
  mutable captures : bool;  (* references a free local of an enclosing scope *)
  mutable zero_alloc : bool;  (* [@cisp.zero_alloc] on the definition *)
  mutable alloc_ok : bool;  (* [@cisp.alloc_ok]: damp allocs at this node *)
  mutable entry_held : SS.t;
      (* locks syntactically held where a [Lambda] is created (a
         closure handed to [Mutex.protect] runs under that mutex);
         empty for named functions *)
  mutable lock_acqs : (SS.t * string * Effects.site) list;
      (* direct acquisition sites: (held set at the site, acquired
         mutex, site) — the raw material of the L13 order graph *)
  mutable blocked_sites : (string * SS.t * Effects.site) list;
      (* direct blocking calls made while a lock was held:
         (blocking kind, held set, site) — direct L14 witnesses *)
  mutable direct : Effects.t;
  mutable edges : edge list;
}

type pool_site = {
  ps_site : Effects.site;
  ps_combinator : string;
  ps_caller : int;
  mutable ps_targets : int list;  (* resolved closure / function nodes *)
}

type t = {
  nodes : node array;
  pool_sites : pool_site list;
  public : SS.t;
  intf_units : SS.t;
  by_name : int SM.t;
}

let pool_combinators = [ "Cisp_util.Pool.parallel_for" ]

(* ------------------------------------------------------------------ *)
(* Canonical names                                                     *)
(* ------------------------------------------------------------------ *)

(* "Cisp_util__Pool" -> ["Cisp_util"; "Pool"] (dune wrapping). *)
let split_mangled s =
  let n = String.length s in
  let rec go acc start i =
    if i + 1 < n && Char.equal s.[i] '_' && Char.equal s.[i + 1] '_' && i > start
    then go (String.sub s start (i - start) :: acc) (i + 2) (i + 2)
    else if i >= n then List.rev (String.sub s start (n - start) :: acc)
    else go acc start (i + 1)
  in
  if n = 0 then [ s ] else go [] 0 0

let canonical_of_modname m = String.concat "." (split_mangled m)

type builder = {
  mutable bnodes : node list;  (* newest first *)
  mutable bcount : int;
  mutable bpool : (pool_site * callee list) list;
  mutable bpublic : SS.t;
  mutable bintf : SS.t;
  mutable bnames : int SM.t;
}

type ctx = {
  b : builder;
  source : string;
  unit_canon : string;
  mutable aliases : string SM.t;  (* local module name -> canonical *)
  mutable globals : string SM.t;  (* unique_name -> canonical *)
  mutable stamp_nodes : int SM.t;  (* unique_name -> node id *)
  mutable cur : node;
  mutable mask : Effects.mask;
  mutable held : SS.t;  (* mutexes syntactically held at this point *)
  mutable mod_prefix : string list;  (* innermost first *)
}

let canonicalize ctx raw =
  let parts = String.split_on_char '.' raw |> List.concat_map split_mangled in
  let parts =
    match parts with
    | first :: rest -> (
        match SM.find_opt first ctx.aliases with
        | Some target -> String.split_on_char '.' target @ rest
        | None -> parts)
    | [] -> parts
  in
  match parts with
  | "Stdlib" :: (_ :: _ as rest) -> String.concat "." rest
  | parts -> String.concat "." parts

let canonical_of_path ctx p = canonicalize ctx (Path.name p)

let top_prefix ctx =
  String.concat "." (ctx.unit_canon :: List.rev ctx.mod_prefix)

(* ------------------------------------------------------------------ *)
(* Node plumbing                                                       *)
(* ------------------------------------------------------------------ *)

let mk_node b ~source ~name ~symbol ~kind ~is_fun def_site =
  let n =
    {
      id = b.bcount;
      name;
      symbol;
      unit_source = source;
      def_site;
      kind;
      is_fun;
      params_idx = SM.empty;
      binders = SS.empty;
      captures = false;
      zero_alloc = false;
      alloc_ok = false;
      entry_held = SS.empty;
      lock_acqs = [];
      blocked_sites = [];
      direct = Effects.bottom;
      edges = [];
    }
  in
  b.bcount <- b.bcount + 1;
  b.bnodes <- n :: b.bnodes;
  n

let new_node ctx ~name ~symbol ~kind ~is_fun loc =
  mk_node ctx.b ~source:ctx.source ~name ~symbol ~kind ~is_fun
    (Effects.site_of_loc loc)

let add_edge n e = n.edges <- e :: n.edges

let min_w site = function
  | None -> Some site
  | Some s -> Some (Effects.min_site s site)

let add_raise ctx name site =
  if not (Effects.mask_catches ctx.mask name) then
    let d = ctx.cur.direct in
    ctx.cur.direct <-
      { d with Effects.raises = SM.update name (min_w site) d.Effects.raises }

let add_nondet ctx what site =
  let d = ctx.cur.direct in
  ctx.cur.direct <-
    { d with Effects.nondet = Effects.RS.add (what, site) d.Effects.nondet }

let set_io ctx = ctx.cur.direct <- { ctx.cur.direct with Effects.io = true }
let set_locks ctx = ctx.cur.direct <- { ctx.cur.direct with Effects.locks = true }

let add_mut_global ctx name site =
  let d = ctx.cur.direct in
  ctx.cur.direct <-
    {
      d with
      Effects.mut_global = SM.update name (min_w site) d.Effects.mut_global;
    }

let add_mut_param ctx i site =
  let d = ctx.cur.direct in
  ctx.cur.direct <-
    {
      d with
      Effects.mut_param = Effects.IM.update i (min_w site) d.Effects.mut_param;
    }

let add_mut_free ctx key name site =
  let d = ctx.cur.direct in
  ctx.cur.direct <-
    {
      d with
      Effects.mut_free =
        SM.update key
          (function
            | None -> Some (name, site)
            | Some (n, s) -> Some (n, Effects.min_site s site))
          d.Effects.mut_free;
    }

let add_alloc_n (n : node) kind site =
  let d = n.direct in
  n.direct <-
    { d with Effects.allocs = SM.update kind (min_w site) d.Effects.allocs }

let add_alloc ctx kind site = add_alloc_n ctx.cur kind site

let add_poly ctx what site =
  let d = ctx.cur.direct in
  ctx.cur.direct <-
    { d with Effects.poly_cmp = Effects.RS.add (what, site) d.Effects.poly_cmp }

let add_acquire ctx l site =
  let d = ctx.cur.direct in
  ctx.cur.direct <-
    { d with Effects.acquires = SM.update l (min_w site) d.Effects.acquires }

let add_block ctx kind site =
  let d = ctx.cur.direct in
  ctx.cur.direct <-
    { d with Effects.blocks = SM.update kind (min_w site) d.Effects.blocks }

let add_float_merge ctx what site =
  let d = ctx.cur.direct in
  ctx.cur.direct <-
    {
      d with
      Effects.float_merges = Effects.RS.add (what, site) d.Effects.float_merges;
    }

(* [@cisp.zero_alloc] / [@cisp.alloc_ok "reason"] on a value binding.
   Namespaced attributes are exempt from warning 53, so annotating a
   kernel costs nothing under [-w +a -warn-error +a]. *)
let contract_of_attrs attrs =
  List.fold_left
    (fun (za, ok) (a : Parsetree.attribute) ->
      match a.Parsetree.attr_name.Asttypes.txt with
      | "cisp.zero_alloc" -> (true, ok)
      | "cisp.alloc_ok" -> (za, true)
      | _ -> (za, ok))
    (false, false) attrs

let apply_contract node attrs =
  let za, ok = contract_of_attrs attrs in
  if za then node.zero_alloc <- true;
  if ok then node.alloc_ok <- true

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* The root identifier a mutation or argument expression hangs off:
   [x], [x.field], [x.a.b]. *)
let rec root_path (e : expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_field (e, _, _) -> root_path e
  | _ -> None

let classify_path ctx p =
  match p with
  | Path.Pident id -> (
      let k = Ident.unique_name id in
      match SM.find_opt k ctx.cur.params_idx with
      | Some i -> AParam i
      | None -> (
          match SM.find_opt k ctx.globals with
          | Some canon -> AGlobal canon
          | None ->
              if SS.mem k ctx.cur.binders then ALocal
              else begin
                (* referencing an enclosing scope's local: this node,
                   if it is a closure, needs an environment — so its
                   creation is a heap allocation in the parent *)
                ctx.cur.captures <- true;
                AFreeLocal (k, Ident.name id)
              end))
  | _ -> AGlobal (canonical_of_path ctx p)

let classify_arg ctx (e : expression) =
  match root_path e with None -> AOther | Some p -> classify_path ctx p

(* A stable identity for the mutex expression of a [Mutex.lock/protect/
   unlock] call.  Record fields are keyed by the record TYPE, not the
   value ([pool.mutex : Pool.t] is one lock class however many pools
   exist — the order discipline is per class); module-level mutexes by
   their canonical name; locals by the enclosing top-level symbol. *)
let lock_name ctx (m : expression) =
  match m.exp_desc with
  | Texp_field (r, _, ld) ->
      let prefix =
        match Types.get_desc r.exp_type with
        | Types.Tconstr (p, _, _) ->
            let c = canonical_of_path ctx p in
            if String.contains c '.' then c else top_prefix ctx ^ "." ^ c
        | _ -> top_prefix ctx ^ "." ^ ctx.cur.symbol
      in
      prefix ^ "." ^ ld.Types.lbl_name
  | Texp_ident (p, _, _) -> (
      match classify_path ctx p with
      | AGlobal g -> g
      | _ -> ctx.unit_canon ^ "." ^ ctx.cur.symbol ^ ":" ^ Path.last p)
  | _ -> ctx.unit_canon ^ "." ^ ctx.cur.symbol ^ ":<anonymous mutex>"

let record_mut ctx site (target : expression) =
  match classify_arg ctx target with
  | AGlobal g -> add_mut_global ctx g site
  | AParam i -> add_mut_param ctx i site
  | AFreeLocal (k, n) -> add_mut_free ctx k n site
  | ALocal | AOther -> ()

(* A closure handed to one of these runs on other domains: effects
   that only matter on the executing domain (blocking, lock
   acquisition order) must not fold into the submitting caller. *)
let boundary_guard_name n =
  List.mem n pool_combinators || String.equal n "Domain.spawn"

(* ------------------------------------------------------------------ *)
(* Handler masks from patterns                                         *)
(* ------------------------------------------------------------------ *)

let rec mask_of_exn_pat (p : pattern) =
  match p.pat_desc with
  | Tpat_any | Tpat_var _ -> Effects.Catch_all
  | Tpat_alias (p, _, _) -> mask_of_exn_pat p
  | Tpat_construct (_, cd, _, _) -> Effects.Catch (SS.singleton cd.Types.cstr_name)
  | Tpat_or (a, b, _) ->
      Effects.compose_mask (mask_of_exn_pat a) (mask_of_exn_pat b)
  | _ -> Effects.mask_none

let mask_of_value_cases cases =
  List.fold_left
    (fun m (c : value case) ->
      (* a [when] guard may decline the exception: not a reliable catch *)
      match c.c_guard with
      | Some _ -> m
      | None -> Effects.compose_mask m (mask_of_exn_pat c.c_lhs))
    Effects.mask_none cases

let mask_of_comp_cases cases =
  List.fold_left
    (fun m (c : computation case) ->
      match (c.c_guard, snd (split_pattern c.c_lhs)) with
      | None, Some p -> Effects.compose_mask m (mask_of_exn_pat p)
      | _ -> m)
    Effects.mask_none cases

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Type shapes (structural, no env expansion: a [type m = float]      *)
(* abbreviation is seen through links but a nominal record is opaque)  *)
(* ------------------------------------------------------------------ *)

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
  | _ -> false

let is_exn_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> Path.same p Predef.path_exn
  | _ -> false

(* Does the type syntactically mention [float]?  Bounded depth keeps
   recursive types finite; [Coord.t]-style nominal records are opaque
   here, which under-approximates — acceptable for L12's site list. *)
let rec contains_float depth ty =
  depth > 0
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      Path.same p Predef.path_float
      || List.exists (contains_float (depth - 1)) args
  | Types.Ttuple tys -> List.exists (contains_float (depth - 1)) tys
  | _ -> false

let contains_float ty = contains_float 4 ty

(* First argument type of an arrow, through optional-arg sugar. *)
let arrow_arg_ty ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, targ, _, _) -> Some targ
  | _ -> None

let is_tvar ty =
  match Types.get_desc ty with Types.Tvar _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

let process_impl b (u : Loader.unit_) (str : structure) =
  let unit_canon = canonical_of_modname u.modname in
  (* structure-level evaluation ([let () = ...], [Tstr_eval]) needs a
     node to attribute effects to *)
  let init =
    mk_node b ~source:u.source
      ~name:(unit_canon ^ ".<init>")
      ~symbol:"" ~kind:Top ~is_fun:false
      { Effects.file = u.source; line = 0; col = 0 }
  in
  let ctx =
    {
      b;
      source = u.source;
      unit_canon;
      aliases = SM.empty;
      globals = SM.empty;
      stamp_nodes = SM.empty;
      cur = init;
      mask = Effects.mask_none;
      held = SS.empty;
      mod_prefix = [];
    }
  in
  let it = ref Tast_iterator.default_iterator in
  let walk e = (!it).Tast_iterator.expr !it e in
  let walk_case : 'k. 'k case -> unit =
   fun c -> (!it).Tast_iterator.case !it c
  in
  let add_binder id =
    ctx.cur.binders <- SS.add (Ident.unique_name id) ctx.cur.binders
  in
  let add_param node idx id =
    node.params_idx <- SM.add (Ident.unique_name id) idx node.params_idx
  in
  let with_mask m f =
    let saved = ctx.mask in
    ctx.mask <- m;
    f ();
    ctx.mask <- saved
  in
  let in_node ?(held = SS.empty) node f =
    let saved_cur = ctx.cur
    and saved_mask = ctx.mask
    and saved_held = ctx.held in
    ctx.cur <- node;
    ctx.mask <- Effects.mask_none;
    ctx.held <- held;
    f ();
    ctx.cur <- saved_cur;
    ctx.mask <- saved_mask;
    ctx.held <- saved_held
  in
  (* Register a multi-argument [fun x -> fun y -> ...] chain as one
     node: each layer's parameter (and its case-pattern bindings) gets
     the next index, then the innermost body is walked in the node. *)
  let rec walk_fn_body idx (e : expression) =
    match e.exp_desc with
    | Texp_function { param; cases; _ } -> (
        add_param ctx.cur idx param;
        List.iter
          (fun (c : value case) ->
            List.iter (add_param ctx.cur idx) (pat_bound_idents c.c_lhs))
          cases;
        match cases with
        | [ { c_guard = None; c_rhs; _ } ] -> walk_fn_body (idx + 1) c_rhs
        | cases ->
            List.iter
              (fun (c : value case) ->
                Option.iter walk c.c_guard;
                walk c.c_rhs)
              cases)
    | _ -> walk e
  in
  let lambda_node guard (e : expression) =
    let parent = ctx.cur in
    let line = e.exp_loc.Location.loc_start.Lexing.pos_lnum in
    let node =
      new_node ctx
        ~name:(Printf.sprintf "%s.<fun:%d>" parent.name line)
        ~symbol:parent.symbol ~kind:(Lambda { guard }) ~is_fun:true e.exp_loc
    in
    (* The closure is assumed to run where it is created, under the
       handler mask in force there; its own raises are recorded
       unmasked and filtered on this edge instead. *)
    node.entry_held <- ctx.held;
    add_edge parent
      {
        callee = Internal node.id;
        e_mask = ctx.mask;
        args = [||];
        call_site = Effects.site_of_loc e.exp_loc;
        e_held = ctx.held;
        damp_mut = false;
        boundary =
          (match guard with
          | Some (External n) -> boundary_guard_name n
          | _ -> false);
      };
    in_node ~held:ctx.held node (fun () -> walk_fn_body 0 e);
    (* A capturing lambda needs an environment block at every execution
       of the surrounding code; a captureless one is statically
       allocated.  Only per-call contexts are charged: a closure built
       once at module init is not an allocation on anyone's hot path. *)
    if node.captures && parent.is_fun then
      add_alloc_n parent "closure" (Effects.site_of_loc e.exp_loc);
    node
  in
  (* Resolve an identifier to a node known in this unit (same-file
     top-level value or local function). *)
  let resolve_local p =
    match p with
    | Path.Pident id -> SM.find_opt (Ident.unique_name id) ctx.stamp_nodes
    | _ -> None
  in
  let callee_of_path p =
    match resolve_local p with
    | Some id -> Internal id
    | None -> External (canonical_of_path ctx p)
  in
  (* Light-weight external effects for a named function passed as a
     value ([List.iter print_endline]): the consumer will run it. *)
  let ext_value_effects name site =
    (match Effects.ext_raises name with
    | Some exn -> add_raise ctx exn site
    | None -> ());
    (match Effects.ext_nondet name with
    | Some what -> add_nondet ctx what site
    | None -> ());
    if Effects.ext_io name then set_io ctx
  in
  (* A polymorphic compare/hash primitive escaping as a first-class
     value at a concrete instantiation: the consumer calls it through
     the generic runtime walker, never the specialized code the
     compiler emits for direct applications. *)
  let note_poly_value p ty site =
    match p with
    | Path.Pident _ -> ()
    | _ ->
        let name = canonical_of_path ctx p in
        if Effects.ext_poly_cmp name then
          match arrow_arg_ty ty with
          | Some t when not (is_tvar t) ->
              add_poly ctx
                (Printf.sprintf "polymorphic `%s' used as a first-class comparator" name)
                site
          | _ -> ()
  in
  (* Walk one argument; returns the callee to use as a closure target
     when the argument is function-valued. *)
  let walk_arg guard (a : expression) : callee option =
    match a.exp_desc with
    | Texp_function _ -> Some (Internal (lambda_node guard a).id)
    | Texp_ident (p, _, _) when is_arrow a.exp_type -> (
        ignore (classify_path ctx p);
        note_poly_value p a.exp_type (Effects.site_of_loc a.exp_loc);
        let site = Effects.site_of_loc a.exp_loc in
        let boundary =
          match guard with
          | Some (External n) -> boundary_guard_name n
          | _ -> false
        in
        match callee_of_path p with
        | Internal id as c ->
            (* a known function passed as a value: assume it runs *)
            add_edge ctx.cur
              {
                callee = c;
                e_mask = ctx.mask;
                args = [||];
                call_site = site;
                e_held = ctx.held;
                damp_mut = false;
                boundary;
              };
            Some (Internal id)
        | External name as c -> (
            match p with
            | Path.Pident _ -> None
            | _ ->
                ext_value_effects name site;
                add_edge ctx.cur
                  {
                    callee = c;
                    e_mask = ctx.mask;
                    args = [||];
                    call_site = site;
                    e_held = ctx.held;
                    damp_mut = false;
                    boundary;
                  };
                Some c))
    | Texp_ident (p, _, _) ->
        ignore (classify_path ctx p);
        None
    | Texp_apply _ ->
        walk a;
        (* partial application: target the head function's node *)
        let rec head (e : expression) =
          match e.exp_desc with
          | Texp_ident (p, _, _) -> Some p
          | Texp_apply (f, _) -> head f
          | _ -> None
        in
        Option.map callee_of_path (head a)
    | _ ->
        walk a;
        None
  in
  let handle_apply (e : expression) fn args =
    let site = Effects.site_of_loc e.exp_loc in
    let argexprs = List.filter_map snd args in
    match fn.exp_desc with
    | Texp_ident (p, _, _) ->
        ignore (classify_path ctx p);
        let callee = callee_of_path p in
        let name =
          match callee with
          | External n -> n
          | Internal _ -> canonical_of_path ctx p
        in
        let held_before = ctx.held in
        (* Lock bookkeeping happens in two halves: the acquisition is
           recorded (and, for [Mutex.protect], added to the held set)
           BEFORE the arguments are walked, so the closure handed to
           [protect] is analyzed under the mutex it runs under. *)
        let is_protect = String.equal name "Mutex.protect" in
        let lock_acq =
          match name with
          | "Mutex.lock" | "Mutex.try_lock" | "Mutex.protect" -> (
              match argexprs with m :: _ -> Some (lock_name ctx m) | [] -> None)
          | _ -> None
        in
        (match lock_acq with
        | Some l ->
            ctx.cur.lock_acqs <- (held_before, l, site) :: ctx.cur.lock_acqs;
            add_acquire ctx l site;
            if is_protect then ctx.held <- SS.add l ctx.held
        | None -> ());
        (* arguments first: lambda targets must exist before the pool
           site that references them is recorded *)
        let targets =
          List.map
            (fun a ->
              let t = walk_arg (Some callee) a in
              if is_arrow a.exp_type then t else None)
            argexprs
          |> List.filter_map Fun.id
        in
        let argcs = Array.of_list (List.map (classify_arg ctx) argexprs) in
        (match callee with
        | External _ ->
            (* effect tables; internal canonical names (always
               [Unit.something]) never collide with stdlib entries *)
            (match Effects.ext_raises name with
            | Some exn -> add_raise ctx exn site
            | None -> ());
            (match Effects.ext_mut_arg name with
            | Some i -> (
                match List.nth_opt argexprs i with
                | Some a -> record_mut ctx site a
                | None -> () (* partial application *))
            | None -> ());
            (match Effects.ext_nondet name with
            | Some what -> add_nondet ctx what site
            | None -> ());
            if Effects.ext_locks name then set_locks ctx;
            if Effects.ext_io name then set_io ctx;
            (match Effects.ext_alloc name with
            | Some kind -> add_alloc ctx kind site
            | None -> ());
            (match Effects.ext_boxes_float_arg name with
            | Some i -> (
                match List.nth_opt argexprs i with
                | Some a when is_float_ty a.exp_type ->
                    add_alloc ctx "boxed float" site
                | _ -> ())
            | None -> ());
            (* Direct application of a structural primitive at a
               float-bearing aggregate: the generic runtime comparator
               walks (and on flat float blocks, boxes) every element.
               Bare [float] arguments are excluded — the compiler
               specializes those. *)
            (if Effects.ext_poly_cmp name && not (is_arrow e.exp_type) then
               match argexprs with
               | a :: _
                 when contains_float a.exp_type && not (is_float_ty a.exp_type)
                 ->
                   add_poly ctx
                     (Printf.sprintf
                        "polymorphic `%s' on a float-bearing type" name)
                     site
               | _ -> ());
            (match name with
            | "Hashtbl.find" | "Hashtbl.find_opt" | "Hashtbl.mem"
            | "Hashtbl.add" | "Hashtbl.replace" | "Hashtbl.remove"
            | "Hashtbl.find_all" -> (
                match argexprs with
                | t :: _ -> (
                    match Types.get_desc t.exp_type with
                    | Types.Tconstr (_, [ k; _ ], _) when contains_float k ->
                        add_poly ctx
                          (Printf.sprintf
                             "%s on a float-keyed table (polymorphic \
                              hash/equality)"
                             name)
                          site
                    | _ -> ())
                | [] -> ())
            | _ -> ());
            (* L14 raw material: a call that may park this domain,
               recorded as a blocking kind; if a lock was already held
               here it is also a direct under-lock witness.  The one
               sanctioned shape is [Condition.wait c m] while holding
               exactly [m] — that IS the protocol. *)
            (match Effects.ext_blocking name with
            | Some kind when not (is_arrow e.exp_type) ->
                let kind =
                  match lock_acq with
                  | Some l -> Printf.sprintf "%s of `%s'" kind l
                  | None -> kind
                in
                add_block ctx kind site;
                let protocol_ok =
                  String.equal name "Condition.wait"
                  &&
                  match argexprs with
                  | [ _; m ] ->
                      SS.subset held_before (SS.singleton (lock_name ctx m))
                  | _ -> false
                in
                if (not (SS.is_empty held_before)) && not protocol_ok then
                  ctx.cur.blocked_sites <-
                    (kind, held_before, site) :: ctx.cur.blocked_sites
            | _ -> ());
            (* L15 raw material: float accumulation drawn from an
               unordered traversal, or merged across domains by hand. *)
            (match name with
            | "Hashtbl.fold"
              when (not (is_arrow e.exp_type)) && contains_float e.exp_type ->
                add_float_merge ctx
                  "float accumulation over `Hashtbl.fold' (unordered \
                   iteration)"
                  site
            | "Hashtbl.iter" | "Hashtbl.to_seq" | "Hashtbl.to_seq_keys"
            | "Hashtbl.to_seq_values" -> (
                let tbl_idx = if String.equal name "Hashtbl.iter" then 1 else 0 in
                match List.nth_opt argexprs tbl_idx with
                | Some t -> (
                    match Types.get_desc t.exp_type with
                    | Types.Tconstr (_, targs, _)
                      when List.exists contains_float targs ->
                        add_float_merge ctx
                          (Printf.sprintf
                             "float-bearing `%s' traversal (unordered \
                              iteration)"
                             name)
                          site
                    | _ -> ())
                | None -> ())
            | "Domain.join" when contains_float e.exp_type ->
                add_float_merge ctx
                  "cross-domain float merge via `Domain.join' (outside the \
                   pool's per-index slots)"
                  site
            | _ -> ())
        | Internal _ -> ());
        (* Second half of the lock bookkeeping: [lock]/[try_lock] hold
           from here to the matching [unlock]; [protect] releases on
           return (unless the same class was already held). *)
        (match lock_acq with
        | Some l ->
            if is_protect then begin
              if not (SS.mem l held_before) then ctx.held <- SS.remove l ctx.held
            end
            else ctx.held <- SS.add l ctx.held
        | None -> ());
        (if String.equal name "Mutex.unlock" then
           match argexprs with
           | m :: _ -> ctx.held <- SS.remove (lock_name ctx m) ctx.held
           | [] -> ());
        if is_arrow e.exp_type then add_alloc ctx "partial application" site;
        (match name with
        | "raise" | "raise_notrace" | "Printexc.raise_with_backtrace" -> (
            match argexprs with
            | { exp_desc = Texp_construct (_, cd, _); _ } :: _ ->
                add_raise ctx cd.Types.cstr_name site
            | _ ->
                (* re-raise of a caught variable: the origin was
                   already attributed where the exception was built *)
                ())
        | _ -> ());
        add_edge ctx.cur
          {
            callee;
            e_mask = ctx.mask;
            args = argcs;
            call_site = site;
            e_held = held_before;
            damp_mut = false;
            boundary = false;
          };
        if List.mem name pool_combinators then
          b.bpool <-
            ( {
                ps_site = site;
                ps_combinator = name;
                ps_caller = ctx.cur.id;
                ps_targets = [];
              },
              targets )
            :: b.bpool
    | _ ->
        walk fn;
        List.iter (fun a -> ignore (walk_arg None a)) argexprs;
        if is_arrow e.exp_type then add_alloc ctx "partial application" site
  in
  let expr sub (e : expression) =
    match e.exp_desc with
    | Texp_function _ -> ignore (lambda_node None e)
    | Texp_apply (fn, args) -> handle_apply e fn args
    | Texp_ident (p, _, _) ->
        ignore (classify_path ctx p);
        if is_arrow e.exp_type then
          note_poly_value p e.exp_type (Effects.site_of_loc e.exp_loc)
    | Texp_tuple es ->
        let site = Effects.site_of_loc e.exp_loc in
        add_alloc ctx "tuple" site;
        if List.exists (fun (x : expression) -> is_float_ty x.exp_type) es
        then add_alloc ctx "boxed float" site;
        List.iter walk es
    | Texp_construct (_, cd, args) when args <> [] && not (is_exn_ty e.exp_type)
      ->
        (* exception payloads live on the raise path, which zero-alloc
           contracts deliberately exempt *)
        let site = Effects.site_of_loc e.exp_loc in
        add_alloc ctx
          (if String.equal cd.Types.cstr_name "::" then "list"
           else "variant block")
          site;
        if List.exists (fun (x : expression) -> is_float_ty x.exp_type) args
        then add_alloc ctx "boxed float" site;
        List.iter walk args
    | Texp_record { fields; representation; extended_expression } ->
        let site = Effects.site_of_loc e.exp_loc in
        (match representation with
        | Types.Record_unboxed _ -> () (* erased at runtime *)
        | _ ->
            add_alloc ctx "record" site;
            (* mixed records box each float field; all-float records
               are flat, all-immediate ones have nothing to box *)
            let total = Array.length fields in
            let floats =
              Array.fold_left
                (fun acc ((ld : Types.label_description), _) ->
                  if is_float_ty ld.Types.lbl_arg then acc + 1 else acc)
                0 fields
            in
            if floats > 0 && floats < total then
              add_alloc ctx "boxed float" site);
        Option.iter walk extended_expression;
        Array.iter
          (fun (_, def) ->
            match def with Kept _ -> () | Overridden (_, x) -> walk x)
          fields
    | Texp_array es ->
        add_alloc ctx "array" (Effects.site_of_loc e.exp_loc);
        List.iter walk es
    | Texp_variant (_, Some x) ->
        add_alloc ctx "variant block" (Effects.site_of_loc e.exp_loc);
        walk x
    | Texp_lazy x ->
        add_alloc ctx "lazy" (Effects.site_of_loc e.exp_loc);
        walk x
    | Texp_setfield (target, _, _, rhs) ->
        record_mut ctx (Effects.site_of_loc e.exp_loc) target;
        walk target;
        walk rhs
    | Texp_try (body, cases) ->
        let m = mask_of_value_cases cases in
        with_mask (Effects.compose_mask ctx.mask m) (fun () -> walk body);
        List.iter walk_case cases
    | Texp_match (scrut, cases, _) ->
        let m = mask_of_comp_cases cases in
        with_mask (Effects.compose_mask ctx.mask m) (fun () -> walk scrut);
        List.iter walk_case cases
    | Texp_for (id, _, lo, hi, _, body) ->
        add_binder id;
        walk lo;
        walk hi;
        walk body
    | Texp_assert (cond, _) ->
        (* Assert_failure is deliberately untracked: L6 already
           polices validation asserts, and [assert false] markers
           would otherwise poison every caller's raise set. *)
        walk cond
    | _ -> Tast_iterator.default_iterator.Tast_iterator.expr sub e
  in
  let pat : 'k. Tast_iterator.iterator -> 'k general_pattern -> unit =
   fun sub p ->
    List.iter add_binder (pat_bound_idents p);
    Tast_iterator.default_iterator.Tast_iterator.pat sub p
  in
  (* Local [let]-bound functions become their own nodes; the whole
     binding group is pre-registered so [let rec f .. and g ..] bodies
     can resolve each other. *)
  let value_bindings sub ((_, vbs) : Asttypes.rec_flag * value_binding list) =
    let prepared =
      List.map
        (fun (vb : value_binding) ->
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var (id, _), Texp_function _ ->
              add_binder id;
              let node =
                new_node ctx
                  ~name:(ctx.cur.name ^ "." ^ Ident.name id)
                  ~symbol:ctx.cur.symbol ~kind:Local ~is_fun:true
                  vb.vb_expr.exp_loc
              in
              apply_contract node vb.vb_attributes;
              ctx.stamp_nodes <-
                SM.add (Ident.unique_name id) node.id ctx.stamp_nodes;
              (vb, Some node)
          | _ -> (vb, None))
        vbs
    in
    List.iter
      (fun ((vb : value_binding), node) ->
        match node with
        | Some node ->
            in_node node (fun () -> walk_fn_body 0 vb.vb_expr);
            (* a capturing local function costs its enclosing function
               one environment block per call; captureless ones are
               compiled to static closures *)
            if node.captures && ctx.cur.is_fun then
              add_alloc_n ctx.cur "closure" node.def_site
        | None ->
            Tast_iterator.default_iterator.Tast_iterator.value_binding sub vb)
      prepared
  in
  let rec walk_structure (s : structure) =
    List.iter walk_structure_item s.str_items
  and walk_structure_item (si : structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        let prefix = top_prefix ctx in
        let prepared =
          List.map
            (fun (vb : value_binding) ->
              let ids = pat_bound_idents vb.vb_pat in
              let is_fun =
                match vb.vb_expr.exp_desc with
                | Texp_function _ -> true
                | _ -> false
              in
              let symbol =
                match ids with id :: _ -> Ident.name id | [] -> "_"
              in
              let canon = prefix ^ "." ^ symbol in
              let node =
                new_node ctx ~name:canon ~symbol ~kind:Top ~is_fun
                  vb.vb_expr.exp_loc
              in
              apply_contract node vb.vb_attributes;
              List.iter
                (fun id ->
                  let k = Ident.unique_name id in
                  ctx.globals <-
                    SM.add k (prefix ^ "." ^ Ident.name id) ctx.globals;
                  ctx.stamp_nodes <- SM.add k node.id ctx.stamp_nodes)
                ids;
              b.bnames <- SM.add canon node.id b.bnames;
              (vb, node, is_fun))
            vbs
        in
        List.iter
          (fun ((vb : value_binding), node, is_fun) ->
            in_node node (fun () ->
                if is_fun then walk_fn_body 0 vb.vb_expr else walk vb.vb_expr))
          prepared
    | Tstr_module mb -> walk_module_binding mb
    | Tstr_recmodule mbs ->
        (* register the names first so each body can canonicalize
           references to its siblings *)
        List.iter register_module_alias mbs;
        List.iter walk_module_binding mbs
    | _ -> Tast_iterator.default_iterator.Tast_iterator.structure_item !it si
  and unwrap_module (me : module_expr) =
    match me.mod_desc with
    | Tmod_constraint (me, _, _, _) -> unwrap_module me
    | _ -> me
  and register_module_alias (mb : module_binding) =
    match mb.mb_name.txt with
    | None -> ()
    | Some name -> (
        match (unwrap_module mb.mb_expr).mod_desc with
        | Tmod_ident (p, _) ->
            ctx.aliases <- SM.add name (canonical_of_path ctx p) ctx.aliases
        | _ ->
            ctx.aliases <- SM.add name (top_prefix ctx ^ "." ^ name) ctx.aliases
        )
  and walk_module_binding (mb : module_binding) =
    match mb.mb_name.txt with
    | None -> ()
    | Some name -> (
        register_module_alias mb;
        match (unwrap_module mb.mb_expr).mod_desc with
        | Tmod_ident _ -> ()
        | Tmod_structure str ->
            let saved = ctx.mod_prefix in
            ctx.mod_prefix <- name :: saved;
            walk_structure str;
            ctx.mod_prefix <- saved
        | _ -> (!it).Tast_iterator.module_expr !it mb.mb_expr)
  in
  let structure_item _sub (si : structure_item) = walk_structure_item si in
  it :=
    {
      Tast_iterator.default_iterator with
      Tast_iterator.expr;
      pat;
      value_bindings;
      structure_item;
    };
  walk_structure str

(* ------------------------------------------------------------------ *)
(* Interfaces: exported names                                          *)
(* ------------------------------------------------------------------ *)

let process_intf b (u : Loader.unit_) (sg : signature) =
  let canon = canonical_of_modname u.modname in
  b.bintf <- SS.add canon b.bintf;
  let rec items prefix sig_items = List.iter (item prefix) sig_items
  and item prefix (si : signature_item) =
    match si.sig_desc with
    | Tsig_value vd ->
        b.bpublic <- SS.add (prefix ^ "." ^ vd.val_name.txt) b.bpublic
    | Tsig_module md -> (
        match (md.md_name.txt, md.md_type.mty_desc) with
        | Some n, Tmty_signature s -> items (prefix ^ "." ^ n) s.sig_items
        | _ -> ())
    | _ -> ()
  in
  items canon sg.sig_items

(* ------------------------------------------------------------------ *)
(* Linking                                                             *)
(* ------------------------------------------------------------------ *)

let build (units : Loader.unit_ list) =
  let b =
    {
      bnodes = [];
      bcount = 0;
      bpool = [];
      bpublic = SS.empty;
      bintf = SS.empty;
      bnames = SM.empty;
    }
  in
  List.iter
    (fun (u : Loader.unit_) ->
      match u.kind with
      | Loader.Impl str -> process_impl b u str
      | Loader.Intf sg -> process_intf b u sg)
    units;
  let nodes = Array.of_list (List.rev b.bnodes) in
  let resolve = function
    | Internal _ as c -> c
    | External name as c -> (
        match SM.find_opt name b.bnames with
        | Some id -> Internal id
        | None -> c)
  in
  let locks_callee c =
    match resolve c with
    | Internal id -> nodes.(id).direct.Effects.locks
    | External name -> Effects.ext_locks name
  in
  let boundary_callee c =
    match resolve c with
    | Internal id -> boundary_guard_name nodes.(id).name
    | External name -> boundary_guard_name name
  in
  Array.iter
    (fun n ->
      List.iter
        (fun e ->
          e.callee <- resolve e.callee;
          (* a direct call to a pool combinator is itself a boundary:
             its internal lock/wait belongs to the submission protocol
             (L14 reports held-lock submissions separately) *)
          (match e.callee with
          | Internal id -> (
              if boundary_guard_name nodes.(id).name then e.boundary <- true;
              match nodes.(id).kind with
              | Lambda { guard = Some g } ->
                  if locks_callee g then e.damp_mut <- true;
                  if boundary_callee g then e.boundary <- true
              | _ -> ())
          | External name ->
              if boundary_guard_name name then e.boundary <- true))
        n.edges)
    nodes;
  let pool_sites =
    List.rev_map
      (fun (ps, targets) ->
        ps.ps_targets <-
          List.filter_map
            (fun t ->
              match resolve t with
              | Internal id when nodes.(id).is_fun -> Some id
              | _ -> None)
            targets;
        ps)
      b.bpool
    |> List.sort (fun a b -> Effects.compare_site a.ps_site b.ps_site)
  in
  {
    nodes;
    pool_sites;
    public = b.bpublic;
    intf_units = b.bintf;
    by_name = b.bnames;
  }

let find t name =
  match SM.find_opt name t.by_name with
  | Some id -> Some t.nodes.(id)
  | None -> None
