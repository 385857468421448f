(* Phase 2: the three summary-consuming rules.

   - L7 domain-safety: every closure handed to a [Cisp_util.Pool]
     combinator must not transitively mutate shared state — neither
     module-level state nor a local captured from an enclosing scope
     (the lattice already discounts [Atomic] operations, per-slot
     [Array.set] writes and mutex-protected sections, see {!Effects}
     and {!Summary}).
   - L8 exception-escape: a function exported by a [.mli] must not
     (transitively) raise anything but the repo's documented
     [Invalid_argument] validation convention.  Blame lands at the
     origin: a public function is flagged only when the offending
     raise lives in its own compilation unit, so one deep raise does
     not indict the whole call chain above it.
   - L9 nondeterminism-taint: no ambient-nondeterminism read
     (wall clocks, [Random], environment, hash-table iteration order)
     may be reachable from the design pipeline outside the seeded
     [Cisp_util.Rng].
   - L10 zero-alloc contracts: a function carrying [@cisp.zero_alloc]
     must not reach any heap allocation in its transitive call graph;
     the diagnostic lands at the allocation's origin site, like L8's
     blame-at-origin.
   - L11 pool-body allocation: a closure handed to a [Cisp_util.Pool]
     combinator must not allocate a closure, box a float or build a
     partial application per call.
   - L12 polymorphic-comparison taint: no polymorphic compare/hash at
     a monomorphizable type reachable from the design pipeline; same
     BFS as L9.
   - L13 lock-order consistency: the global acquisition graph (lock
     held -> lock taken, direct or through any call chain) must be
     acyclic and agree with the canonical order of [l13_order].
   - L14 blocking-under-lock: no call that may park the domain (mutex
     acquisition, [Domain.join], [Condition.wait], IO, [Unix]) while
     a lock is held or inside a [Pool] combinator body; submitting a
     pool job while holding a lock is its own variant.
   - L15 float-merge determinism: no float accumulation over an
     unordered source reachable from the design pipeline; same BFS as
     L9/L12. *)

module SM = Effects.SM
module SS = Effects.SS

type config = {
  l7 : bool;
  l8 : bool;
  l9 : bool;
  l10 : bool;
  l11 : bool;
  l12 : bool;
  l13 : bool;
  l14 : bool;
  l15 : bool;
  l8_unit_ok : string -> bool;
      (* is this source file held to the public-raise convention? *)
  l9_root : Callgraph.node -> bool;
      (* pipeline entry points; L12/L15 reachability uses the same roots *)
  l9_site_ok : string -> bool;  (* source files where L9 reads are flagged *)
  l9_exempt : string -> bool;  (* canonical node names allowed to read *)
  l12_site_ok : string -> bool;  (* source files where L12 sites are flagged *)
  l13_order : string list;
      (* canonical lock order, outermost first; acquisitions jumping
         backwards in this list are flagged even without a cycle *)
  l15_site_ok : string -> bool;  (* source files where L15 sites are flagged *)
  l15_exempt : string -> bool;
      (* canonical node names allowed to fold unordered containers *)
}

let default_l9_exempt name =
  (* the repo's seeded PRNG is the one sanctioned randomness source *)
  String.starts_with ~prefix:"Cisp_util.Rng." name

let default_l15_exempt name =
  (* [Cisp_util.Tbl] is the sorted-view shim: it folds the raw table
     precisely so nobody else has to *)
  String.starts_with ~prefix:"Cisp_util.Tbl." name

let generic =
  {
    l7 = true;
    l8 = true;
    l9 = true;
    l10 = true;
    l11 = true;
    l12 = true;
    l13 = true;
    l14 = true;
    l15 = true;
    l8_unit_ok = (fun _ -> true);
    l9_root = (fun _ -> true);
    l9_site_ok = (fun _ -> true);
    l9_exempt = default_l9_exempt;
    l12_site_ok = (fun _ -> true);
    l13_order = [];
    l15_site_ok = (fun _ -> true);
    l15_exempt = default_l15_exempt;
  }

(* ------------------------------------------------------------------ *)

let check_l7 (g : Callgraph.t) (sums : Effects.t array) =
  List.concat_map
    (fun (ps : Callgraph.pool_site) ->
      let caller = g.Callgraph.nodes.(ps.Callgraph.ps_caller) in
      let combinator =
        (* "Cisp_util.Pool.parallel_for" -> "Pool.parallel_for" *)
        match String.index_opt ps.Callgraph.ps_combinator '.' with
        | Some i ->
            String.sub ps.Callgraph.ps_combinator (i + 1)
              (String.length ps.Callgraph.ps_combinator - i - 1)
        | None -> ps.Callgraph.ps_combinator
      in
      List.concat_map
        (fun tid ->
          let s = sums.(tid) in
          let mk what site =
            Diag.make ~rule:Diag.L7 ~symbol:caller.Callgraph.symbol
              ~message:
                (Printf.sprintf
                   "closure passed to %s mutates shared %s (write at %s)"
                   combinator what
                   (Effects.site_to_string site))
              (Effects.loc_of_site ps.Callgraph.ps_site)
          in
          SM.fold
            (fun name site acc -> mk ("`" ^ name ^ "'") site :: acc)
            s.Effects.mut_global []
          @ SM.fold
              (fun _ (name, site) acc ->
                mk (Printf.sprintf "captured local `%s'" name) site :: acc)
              s.Effects.mut_free [])
        ps.Callgraph.ps_targets)
    g.Callgraph.pool_sites

let check_l8 cfg (g : Callgraph.t) (sums : Effects.t array) =
  Array.to_list g.Callgraph.nodes
  |> List.concat_map (fun (node : Callgraph.node) ->
         let is_public =
           (match node.Callgraph.kind with
           | Callgraph.Top -> true
           | _ -> false)
           && SS.mem node.Callgraph.name g.Callgraph.public
           (* under shadowing (e.g. an outer [solve] wrapping an inner
              one in a try) only the last binding of the name is the
              exported one; [by_name] keeps exactly that binding *)
           && SM.find_opt node.Callgraph.name g.Callgraph.by_name
              = Some node.Callgraph.id
           && cfg.l8_unit_ok node.Callgraph.unit_source
         in
         if not is_public then []
         else
           SM.fold
             (fun exn site acc ->
               if
                 String.equal exn "Invalid_argument"
                 (* blame at the origin: only flag raises born in this
                    function's own unit *)
                 || not (String.equal site.Effects.file node.Callgraph.unit_source)
               then acc
               else
                 Diag.make ~rule:Diag.L8 ~symbol:node.Callgraph.symbol
                   ~message:
                     (Printf.sprintf
                        "public `%s' can raise %s, outside the \
                         Invalid_argument convention"
                        node.Callgraph.name exn)
                   (Effects.loc_of_site site)
                 :: acc)
             sums.(node.Callgraph.id).Effects.raises [])

(* Multi-source BFS from the pipeline entry points, roots seeded in
   name order so the "reachable from" witness is deterministic.
   Shared by L9 and L12; [via.(i)] is the root that first reached
   node [i]. *)
let pipeline_reachability cfg (g : Callgraph.t) =
  let n = Array.length g.Callgraph.nodes in
  let via = Array.make n None in
  let q = Queue.create () in
  Array.to_list g.Callgraph.nodes
  |> List.filter cfg.l9_root
  |> List.sort (fun (a : Callgraph.node) b ->
         String.compare a.Callgraph.name b.Callgraph.name)
  |> List.iter (fun (r : Callgraph.node) ->
         if via.(r.Callgraph.id) = None then begin
           via.(r.Callgraph.id) <- Some r.Callgraph.name;
           Queue.add r.Callgraph.id q
         end);
  let rec drain () =
    match Queue.take_opt q with
    | None -> ()
    | Some i ->
        List.iter
          (fun (e : Callgraph.edge) ->
            match e.Callgraph.callee with
            | Callgraph.External _ -> ()
            | Callgraph.Internal j ->
                if via.(j) = None then begin
                  via.(j) <- via.(i);
                  Queue.add j q
                end)
          g.Callgraph.nodes.(i).Callgraph.edges;
        drain ()
  in
  drain ();
  via

let check_l9 cfg (g : Callgraph.t) =
  let via = pipeline_reachability cfg g in
  Array.to_list g.Callgraph.nodes
  |> List.concat_map (fun (node : Callgraph.node) ->
         match via.(node.Callgraph.id) with
         | None -> []
         | Some root ->
             if cfg.l9_exempt node.Callgraph.name then []
             else
               Effects.RS.elements node.Callgraph.direct.Effects.nondet
               |> List.filter_map (fun (what, site) ->
                      if not (cfg.l9_site_ok site.Effects.file) then None
                      else
                        Some
                          (Diag.make ~rule:Diag.L9 ~symbol:node.Callgraph.symbol
                             ~message:
                               (Printf.sprintf
                                  "reads ambient nondeterminism (%s); \
                                   reachable from pipeline entry `%s'"
                                  what root)
                             (Effects.loc_of_site site))))

(* The kinds of per-call garbage that serialize a parallel worker on
   the minor allocator: environment blocks, float boxes, and the
   closures [Texp_apply] builds for unsaturated calls.  Plain data
   allocation in a worker (filling an output list, say) is L7/L10
   territory, not L11's. *)
let l11_kinds = [ "closure"; "boxed float"; "partial application" ]

let check_l10 (g : Callgraph.t) (sums : Effects.t array) =
  Array.to_list g.Callgraph.nodes
  |> List.concat_map (fun (node : Callgraph.node) ->
         if not node.Callgraph.zero_alloc then []
         else
           SM.fold
             (fun kind site acc ->
               (* blame at the origin: the diagnostic lands on the
                  allocation site, wherever the call chain put it *)
               Diag.make ~rule:Diag.L10 ~symbol:node.Callgraph.symbol
                 ~message:
                   (Printf.sprintf
                      "zero-alloc contract on `%s' violated: %s allocation"
                      node.Callgraph.name kind)
                 (Effects.loc_of_site site)
               :: acc)
             sums.(node.Callgraph.id).Effects.allocs [])

let check_l11 (g : Callgraph.t) (sums : Effects.t array) =
  List.concat_map
    (fun (ps : Callgraph.pool_site) ->
      let caller = g.Callgraph.nodes.(ps.Callgraph.ps_caller) in
      let combinator =
        match String.index_opt ps.Callgraph.ps_combinator '.' with
        | Some i ->
            String.sub ps.Callgraph.ps_combinator (i + 1)
              (String.length ps.Callgraph.ps_combinator - i - 1)
        | None -> ps.Callgraph.ps_combinator
      in
      List.concat_map
        (fun tid ->
          SM.fold
            (fun kind site acc ->
              if not (List.mem kind l11_kinds) then acc
              else
                Diag.make ~rule:Diag.L11 ~symbol:caller.Callgraph.symbol
                  ~message:
                    (Printf.sprintf
                       "closure passed to %s allocates per call: %s at %s"
                       combinator kind
                       (Effects.site_to_string site))
                  (Effects.loc_of_site ps.Callgraph.ps_site)
                :: acc)
            sums.(tid).Effects.allocs [])
        ps.Callgraph.ps_targets)
    g.Callgraph.pool_sites

let check_l12 cfg (g : Callgraph.t) =
  let via = pipeline_reachability cfg g in
  Array.to_list g.Callgraph.nodes
  |> List.concat_map (fun (node : Callgraph.node) ->
         match via.(node.Callgraph.id) with
         | None -> []
         | Some root ->
             Effects.RS.elements node.Callgraph.direct.Effects.poly_cmp
             |> List.filter_map (fun (what, site) ->
                    if not (cfg.l12_site_ok site.Effects.file) then None
                    else
                      Some
                        (Diag.make ~rule:Diag.L12
                           ~symbol:node.Callgraph.symbol
                           ~message:
                             (Printf.sprintf
                                "%s; reachable from pipeline entry `%s' — \
                                 use a monomorphic comparison"
                                what root)
                           (Effects.loc_of_site site))))

(* ------------------------------------------------------------------ *)
(* L13/L14: the lock world                                             *)
(* ------------------------------------------------------------------ *)

(* Locks a node's body runs under before it takes any itself: the
   syntactic snapshot taken at lambda creation, plus — for a lambda
   guarded by an internal lock-taking wrapper ([Telemetry.locked],
   whose [Mutex.protect] lives in its own body) — whatever the guard
   acquires directly.  Boundary guards (pool combinators,
   [Domain.spawn]) contribute nothing: their internal mutex is part of
   the submission protocol, not the body's environment. *)
let entry_held_full (g : Callgraph.t) (n : Callgraph.node) =
  let resolve = function
    | Callgraph.Internal id -> Some id
    | Callgraph.External name -> SM.find_opt name g.Callgraph.by_name
  in
  match n.Callgraph.kind with
  | Callgraph.Lambda { guard = Some gd } -> (
      match resolve gd with
      | Some gid
        when not (Callgraph.boundary_guard_name g.Callgraph.nodes.(gid).Callgraph.name)
        ->
          SM.fold
            (fun l _ acc -> SS.add l acc)
            g.Callgraph.nodes.(gid).Callgraph.direct.Effects.acquires
            n.Callgraph.entry_held
      | _ -> n.Callgraph.entry_held)
  | _ -> n.Callgraph.entry_held

(* The chain from [start] down its first (by call site) edge whose
   callee summary still carries the evidence, ending at the node that
   carries it DIRECTLY; each step "canonical name (file:line)".  This
   is what makes a CI finding actionable without re-running: the path
   from the flagged function to the deep lock/blocking site. *)
let witness_chain (g : Callgraph.t) ~direct_of ~sum_of start =
  let fmt (n : Callgraph.node) site =
    Printf.sprintf "%s (%s)" n.Callgraph.name (Effects.site_to_string site)
  in
  let rec go id depth acc =
    let n = g.Callgraph.nodes.(id) in
    match direct_of n with
    | Some site -> List.rev (fmt n site :: acc)
    | None when depth >= 32 -> List.rev acc
    | None -> (
        let next =
          List.filter_map
            (fun (e : Callgraph.edge) ->
              match e.Callgraph.callee with
              | Callgraph.Internal j
                when (not e.Callgraph.boundary) && sum_of j <> None ->
                  Some (e.Callgraph.call_site, j)
              | _ -> None)
            n.Callgraph.edges
          |> List.sort (fun (a, _) (b, _) -> Effects.compare_site a b)
        in
        match next with
        | (site, j) :: _ -> go j (depth + 1) (fmt n site :: acc)
        | [] -> List.rev acc)
  in
  go start 0 []

type lock_edge = {
  le_from : string;
  le_to : string;
  le_site : Effects.site;
  le_symbol : string;
  le_witness : string list;
}

(* The derived acquisition graph: an edge A -> B for every place the
   analysis sees lock B taken (directly, or anywhere down a
   non-boundary call chain) while lock A is held.  Deduplicated by
   (from, to) keeping the smallest witness site, so the result is
   byte-stable. *)
let lock_graph (g : Callgraph.t) (sums : Effects.t array) =
  let edges = ref [] in
  let push e = edges := e :: !edges in
  Array.iter
    (fun (n : Callgraph.node) ->
      let eh = entry_held_full g n in
      List.iter
        (fun (held, l, site) ->
          SS.iter
            (fun h ->
              push
                {
                  le_from = h;
                  le_to = l;
                  le_site = site;
                  le_symbol = n.Callgraph.symbol;
                  le_witness = [];
                })
            (SS.union held eh))
        n.Callgraph.lock_acqs;
      List.iter
        (fun (e : Callgraph.edge) ->
          match e.Callgraph.callee with
          | Callgraph.Internal j when not e.Callgraph.boundary ->
              let held = SS.union e.Callgraph.e_held eh in
              if not (SS.is_empty held) then
                SM.iter
                  (fun l _ ->
                    let wit =
                      witness_chain g
                        ~direct_of:(fun (m : Callgraph.node) ->
                          SM.find_opt l m.Callgraph.direct.Effects.acquires)
                        ~sum_of:(fun k ->
                          SM.find_opt l sums.(k).Effects.acquires)
                        j
                    in
                    SS.iter
                      (fun h ->
                        push
                          {
                            le_from = h;
                            le_to = l;
                            le_site = e.Callgraph.call_site;
                            le_symbol = n.Callgraph.symbol;
                            le_witness = wit;
                          })
                      held)
                  sums.(j).Effects.acquires
          | _ -> ())
        n.Callgraph.edges)
    g.Callgraph.nodes;
  List.sort
    (fun a b ->
      let c = String.compare a.le_from b.le_from in
      if c <> 0 then c
      else
        let c = String.compare a.le_to b.le_to in
        if c <> 0 then c else Effects.compare_site a.le_site b.le_site)
    !edges
  |> List.fold_left
       (fun acc e ->
         match acc with
         | prev :: _
           when String.equal prev.le_from e.le_from
                && String.equal prev.le_to e.le_to ->
             acc
         | _ -> e :: acc)
       []
  |> List.rev

(* Every lock class the walk saw acquired anywhere, held or not — the
   graph's vertex set (isolated vertices matter in the DOT output:
   they prove a lock never nests). *)
let lock_classes (g : Callgraph.t) =
  Array.fold_left
    (fun acc (n : Callgraph.node) ->
      List.fold_left
        (fun acc (_, l, _) -> SS.add l acc)
        acc n.Callgraph.lock_acqs)
    SS.empty g.Callgraph.nodes
  |> SS.elements

let lock_graph_dot (g : Callgraph.t) (sums : Effects.t array) =
  let edges = lock_graph g sums in
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph lock_order {\n";
  Buffer.add_string b "  rankdir=LR;\n";
  Buffer.add_string b "  node [shape=box fontname=\"monospace\"];\n";
  List.iter
    (fun l -> Buffer.add_string b (Printf.sprintf "  %S;\n" l))
    (lock_classes g);
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  %S -> %S [label=%S];\n" e.le_from e.le_to
           (Effects.site_to_string e.le_site)))
    edges;
  Buffer.add_string b "}\n";
  Buffer.contents b

let check_l13 cfg (g : Callgraph.t) (sums : Effects.t array) =
  let edges = lock_graph g sums in
  let succs = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.add succs e.le_from e.le_to) edges;
  let reaches src dst =
    let seen = Hashtbl.create 8 in
    let rec go x =
      String.equal x dst
      || (not (Hashtbl.mem seen x))
         && begin
              Hashtbl.add seen x ();
              List.exists go (Hashtbl.find_all succs x)
            end
    in
    go src
  in
  let idx l =
    let rec go i = function
      | [] -> None
      | x :: _ when String.equal x l -> Some i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 cfg.l13_order
  in
  List.filter_map
    (fun e ->
      let why =
        if String.equal e.le_from e.le_to then
          Some "reacquires a lock class already held (self-deadlock)"
        else if reaches e.le_to e.le_from then
          Some "closes a cycle in the acquisition graph"
        else
          match (idx e.le_from, idx e.le_to) with
          | Some i, Some j when i > j ->
              Some "contradicts the canonical lock order (DESIGN.md §7e)"
          | _ -> None
      in
      Option.map
        (fun why ->
          Diag.make ~rule:Diag.L13 ~symbol:e.le_symbol ~witness:e.le_witness
            ~message:
              (Printf.sprintf "acquires `%s' while holding `%s' — %s" e.le_to
                 e.le_from why)
            (Effects.loc_of_site e.le_site))
        why)
    edges

let combinator_short name =
  match String.index_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let check_l14 (g : Callgraph.t) (sums : Effects.t array) =
  let held_str held =
    String.concat ", "
      (List.map (fun h -> "`" ^ h ^ "'") (SS.elements held))
  in
  let blocks_chain kind start =
    witness_chain g
      ~direct_of:(fun (m : Callgraph.node) ->
        SM.find_opt kind m.Callgraph.direct.Effects.blocks)
      ~sum_of:(fun k -> SM.find_opt kind sums.(k).Effects.blocks)
      start
  in
  let per_node =
    Array.to_list g.Callgraph.nodes
    |> List.concat_map (fun (n : Callgraph.node) ->
           (* direct blocking calls under a syntactically held lock *)
           let direct =
             List.map
               (fun (kind, held, site) ->
                 Diag.make ~rule:Diag.L14 ~symbol:n.Callgraph.symbol
                   ~message:
                     (Printf.sprintf "may block (%s) while holding %s" kind
                        (held_str held))
                   (Effects.loc_of_site site))
               n.Callgraph.blocked_sites
           in
           (* direct blocking sites in a body that runs under a
              guard's internally-taken lock ([locked (fun () -> ...)]) *)
           let guard_held =
             let extra =
               SS.diff (entry_held_full g n) n.Callgraph.entry_held
             in
             if SS.is_empty extra then []
             else
               SM.fold
                 (fun kind site acc ->
                   if
                     List.exists
                       (fun (_, _, s) -> Effects.compare_site s site = 0)
                       n.Callgraph.blocked_sites
                   then acc
                   else
                     Diag.make ~rule:Diag.L14 ~symbol:n.Callgraph.symbol
                       ~message:
                         (Printf.sprintf "may block (%s) while holding %s"
                            kind (held_str extra))
                       (Effects.loc_of_site site)
                     :: acc)
                 n.Callgraph.direct.Effects.blocks []
           in
           (* calls whose callee may block, made while holding *)
           let eh = entry_held_full g n in
           let transitive =
             List.concat_map
               (fun (e : Callgraph.edge) ->
                 let held = SS.union e.Callgraph.e_held eh in
                 if SS.is_empty held then []
                 else
                   match e.Callgraph.callee with
                   | Callgraph.Internal j when not e.Callgraph.boundary -> (
                       let callee = g.Callgraph.nodes.(j) in
                       match callee.Callgraph.kind with
                       | Callgraph.Lambda _ ->
                           (* the lambda's own walk already carries the
                              held set; flagging here would double-report *)
                           []
                       | _ ->
                           SM.fold
                             (fun kind _ acc ->
                               Diag.make ~rule:Diag.L14
                                 ~symbol:n.Callgraph.symbol
                                 ~witness:(blocks_chain kind j)
                                 ~message:
                                   (Printf.sprintf
                                      "calls `%s', which may block (%s), \
                                       while holding %s"
                                      callee.Callgraph.name kind
                                      (held_str held))
                                 (Effects.loc_of_site e.Callgraph.call_site)
                               :: acc)
                             sums.(j).Effects.blocks [])
                   | c ->
                       (* submitting a parallel job blocks until every
                          chunk completes — with the lock still held *)
                       let cname =
                         match c with
                         | Callgraph.Internal j ->
                             g.Callgraph.nodes.(j).Callgraph.name
                         | Callgraph.External s -> s
                       in
                       if List.mem cname Callgraph.pool_combinators then
                         [
                           Diag.make ~rule:Diag.L14 ~symbol:n.Callgraph.symbol
                             ~message:
                               (Printf.sprintf
                                  "submits a %s job (blocks until the pool \
                                   drains) while holding %s"
                                  (combinator_short cname) (held_str held))
                             (Effects.loc_of_site e.Callgraph.call_site);
                         ]
                       else [])
               n.Callgraph.edges
           in
           direct @ guard_held @ transitive)
  in
  (* a blocking call anywhere in a pool body stalls its whole chunk,
     and the submitter with it *)
  let pool_bodies =
    List.concat_map
      (fun (ps : Callgraph.pool_site) ->
        let caller = g.Callgraph.nodes.(ps.Callgraph.ps_caller) in
        List.concat_map
          (fun tid ->
            SM.fold
              (fun kind site acc ->
                Diag.make ~rule:Diag.L14 ~symbol:caller.Callgraph.symbol
                  ~witness:(blocks_chain kind tid)
                  ~message:
                    (Printf.sprintf
                       "closure passed to %s may block (%s at %s)"
                       (combinator_short ps.Callgraph.ps_combinator)
                       kind
                       (Effects.site_to_string site))
                  (Effects.loc_of_site ps.Callgraph.ps_site)
                :: acc)
              sums.(tid).Effects.blocks [])
          ps.Callgraph.ps_targets)
      g.Callgraph.pool_sites
  in
  per_node @ pool_bodies

let check_l15 cfg (g : Callgraph.t) =
  let via = pipeline_reachability cfg g in
  Array.to_list g.Callgraph.nodes
  |> List.concat_map (fun (node : Callgraph.node) ->
         match via.(node.Callgraph.id) with
         | None -> []
         | Some root ->
             if cfg.l15_exempt node.Callgraph.name then []
             else
               Effects.RS.elements node.Callgraph.direct.Effects.float_merges
               |> List.filter_map (fun (what, site) ->
                      if not (cfg.l15_site_ok site.Effects.file) then None
                      else
                        Some
                          (Diag.make ~rule:Diag.L15
                             ~symbol:node.Callgraph.symbol
                             ~message:
                               (Printf.sprintf
                                  "%s; reachable from pipeline entry `%s' — \
                                   fold a sorted view (Cisp_util.Tbl) or \
                                   fill per-index slots with parallel_for \
                                   and fold them in index order"
                                  what root)
                             (Effects.loc_of_site site))))

let check cfg (g : Callgraph.t) (r : Summary.result) =
  let sums = r.Summary.summaries in
  (if cfg.l7 then check_l7 g sums else [])
  @ (if cfg.l8 then check_l8 cfg g sums else [])
  @ (if cfg.l9 then check_l9 cfg g else [])
  @ (if cfg.l10 then check_l10 g sums else [])
  @ (if cfg.l11 then check_l11 g sums else [])
  @ (if cfg.l12 then check_l12 cfg g else [])
  @ (if cfg.l13 then check_l13 cfg g sums else [])
  @ (if cfg.l14 then check_l14 g sums else [])
  @ if cfg.l15 then check_l15 cfg g else []
