(* Phase 1b: propagate direct effects over the call graph to a
   fixpoint.

   The lattice ({!Effects.t}) is finite and every transfer below is
   monotone (sets grow, witnesses shrink towards the smallest site),
   so round-robin sweeps in node-id order terminate on any graph,
   cyclic call chains included, and the result is independent of
   iteration order.

   Two deliberate damping rules keep the repo's locking idioms out of
   the L7 noise floor; both are conventions, not proofs, and both are
   documented in DESIGN.md §7c:

   - {e lock-owner damping}: a node that takes a mutex DIRECTLY
     ([Mutex.lock]/[protect]) is assumed to protect every mutation it
     performs or inherits, so its summary drops them.  This covers
     [Telemetry]'s [locked] wrapper and [Pool]'s lock-taking
     functions.
   - {e guard damping}: a lambda handed to a lock-taking callee
     ([Telemetry.locked (fun () -> ...)], [Mutex.protect]) does not
     leak its mutations into the function that merely creates it;
     the edge was marked [damp_mut] at link time. *)

type result = { summaries : Effects.t array; rounds : int }

(* Effects a caller inherits through one edge. *)
let propagate (caller : Callgraph.node) (edge : Callgraph.edge)
    (s : Effects.t) =
  let base =
    {
      Effects.bottom with
      Effects.raises = Effects.mask_raises edge.Callgraph.e_mask s.Effects.raises;
      nondet = s.Effects.nondet;
      io = s.Effects.io;
      (* [locks] means "takes a mutex directly" and never propagates *)
      allocs = s.Effects.allocs;
      poly_cmp = s.Effects.poly_cmp;
      float_merges = s.Effects.float_merges;
      (* what blocks a pool worker or spawned domain does not block
         the submitter, and locks it takes are ordered on ITS domain:
         neither crosses a scheduling boundary *)
      acquires =
        (if edge.Callgraph.boundary then Effects.SM.empty
         else s.Effects.acquires);
      blocks =
        (if edge.Callgraph.boundary then Effects.SM.empty else s.Effects.blocks);
    }
  in
  if edge.Callgraph.damp_mut then base
  else
    let acc = { base with Effects.mut_global = s.Effects.mut_global } in
    (* the callee mutates its i-th parameter: translate through what
       the caller passed in that position *)
    let acc =
      Effects.IM.fold
        (fun i site acc ->
          if i >= Array.length edge.Callgraph.args then acc
          else
            match edge.Callgraph.args.(i) with
            | Callgraph.AGlobal g ->
                {
                  acc with
                  Effects.mut_global =
                    Effects.SM.update g
                      (function
                        | None -> Some site
                        | Some s0 -> Some (Effects.min_site s0 site))
                      acc.Effects.mut_global;
                }
            | Callgraph.AParam j ->
                {
                  acc with
                  Effects.mut_param =
                    Effects.IM.update j
                      (function
                        | None -> Some site
                        | Some s0 -> Some (Effects.min_site s0 site))
                      acc.Effects.mut_param;
                }
            | Callgraph.AFreeLocal (k, n) ->
                {
                  acc with
                  Effects.mut_free =
                    Effects.SM.update k
                      (function
                        | None -> Some (n, site)
                        | Some (n0, s0) -> Some (n0, Effects.min_site s0 site))
                      acc.Effects.mut_free;
                }
            | Callgraph.ALocal | Callgraph.AOther -> acc)
        s.Effects.mut_param acc
    in
    (* the callee mutates a captured local: private if the caller is
       the scope that owns it, its own parameter if the capture was a
       parameter, still shared otherwise *)
    let acc =
      Effects.SM.fold
        (fun k (n, site) acc ->
          match Effects.SM.find_opt k caller.Callgraph.params_idx with
          | Some j ->
              {
                acc with
                Effects.mut_param =
                  Effects.IM.update j
                    (function
                      | None -> Some site
                      | Some s0 -> Some (Effects.min_site s0 site))
                    acc.Effects.mut_param;
              }
          | None ->
              if Effects.SS.mem k caller.Callgraph.binders then acc
              else
                {
                  acc with
                  Effects.mut_free =
                    Effects.SM.update k
                      (function
                        | None -> Some (n, site)
                        | Some (n0, s0) -> Some (n0, Effects.min_site s0 site))
                      acc.Effects.mut_free;
                })
        s.Effects.mut_free acc
    in
    acc

(* Lock-owner damping ([locks] is a direct-only bit, so checking the
   accumulated summary is the same as checking the node), plus
   allocation damping at [@cisp.alloc_ok] nodes: a justified cold path
   stops the allocation evidence there instead of poisoning every
   transitive caller's zero-alloc contract. *)
let finalize (node : Callgraph.node) s =
  let s = if s.Effects.locks then Effects.drop_mut s else s in
  if node.Callgraph.alloc_ok then Effects.drop_allocs s else s

let compute (g : Callgraph.t) =
  let n = Array.length g.Callgraph.nodes in
  let summaries =
    Array.init n (fun i ->
        let node = g.Callgraph.nodes.(i) in
        finalize node node.Callgraph.direct)
  in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr rounds;
    for i = 0 to n - 1 do
      let node = g.Callgraph.nodes.(i) in
      let s =
        List.fold_left
          (fun acc (e : Callgraph.edge) ->
            match e.Callgraph.callee with
            | Callgraph.External _ -> acc
            | Callgraph.Internal j ->
                Effects.union acc (propagate node e summaries.(j)))
          node.Callgraph.direct node.Callgraph.edges
      in
      let s = finalize node s in
      if not (Effects.equal s summaries.(i)) then begin
        summaries.(i) <- s;
        changed := true
      end
    done
  done;
  { summaries; rounds = !rounds }
