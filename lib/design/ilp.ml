module Model = Cisp_lp.Model
module Milp = Cisp_lp.Milp

type stats = {
  commodities : int;
  flow_vars : int;
  nodes_explored : int;
  lp_solves : int;
  milp_status : [ `Optimal | `Feasible_gap of float | `Infeasible | `Unbounded | `No_solution ];
}

type arc = { u : int; v : int; len : float; link : int option (* candidate index, None = fiber *) }

type formulation = {
  model : Model.t;
  x : Model.var array;
  cands : (int * int) array;
  f_commodities : int;
  f_flow_vars : int;
}

let formulate ?(strong_linking = false) ?(oracle_pruning = true) (inputs : Inputs.t) ~budget ~candidates =
  let n = Inputs.n_sites inputs in
  let cands = Array.of_list (List.map (fun (i, j) -> if i < j then (i, j) else (j, i)) candidates) in
  let d = inputs.geodesic_km in
  let o = inputs.fiber_km in
  let m = Model.create () in
  let x = Array.map (fun _ -> Model.binary m) cands in
  Model.add_constraint m
    (Array.to_list (Array.mapi (fun l (i, j) -> (float_of_int inputs.mw_cost.(i).(j), x.(l))) cands))
    Model.Le (float_of_int budget);
  let eps_rel = 1e-9 in
  let objective_terms = ref [] in
  let flow_vars = ref 0 in
  let commodities = ref 0 in
  let link_usage : (int, (float * Model.var) list ref) Hashtbl.t = Hashtbl.create 64 in
  for s = 0 to n - 1 do
    for t = s + 1 to n - 1 do
      let h = inputs.traffic.(s).(t) +. inputs.traffic.(t).(s) in
      if h > 0.0 && d.(s).(t) > 0.0 then begin
        let fiber_direct = o.(s).(t) in
        (* Oracle pruning: an arc survives only if even a geodesic
           lower-bound path through it could beat direct fiber. *)
        let beats_fiber via_len du dv =
          (not oracle_pruning)
          || du +. via_len +. dv <= fiber_direct *. (1.0 +. eps_rel)
        in
        let mw_arcs = ref [] in
        Array.iteri
          (fun l (i, j) ->
            let len = inputs.mw_km.(i).(j) in
            if len < infinity then begin
              if beats_fiber len d.(s).(i) d.(j).(t) then
                mw_arcs := { u = i; v = j; len; link = Some l } :: !mw_arcs;
              if beats_fiber len d.(s).(j) d.(i).(t) then
                mw_arcs := { u = j; v = i; len; link = Some l } :: !mw_arcs
            end)
          cands;
        (* A commodity with no surviving MW arc rides direct fiber no
           matter what is built: a constant, dropped from the model. *)
        if !mw_arcs <> [] then begin
          incr commodities;
          let nodes = Hashtbl.create 16 in
          Hashtbl.replace nodes s ();
          Hashtbl.replace nodes t ();
          List.iter
            (fun a ->
              Hashtbl.replace nodes a.u ();
              Hashtbl.replace nodes a.v ())
            !mw_arcs;
          (* ascending node order: LP column order must not depend on
             table iteration order (degenerate ties in the solver) *)
          let node_list = Cisp_util.Tbl.sorted_keys ~compare:Int.compare nodes in
          let fiber_arcs = ref [] in
          List.iter
            (fun u ->
              List.iter
                (fun v ->
                  if u <> v && o.(u).(v) < infinity
                     && beats_fiber o.(u).(v) d.(s).(u) d.(v).(t)
                  then fiber_arcs := { u; v; len = o.(u).(v); link = None } :: !fiber_arcs)
                node_list)
            node_list;
          let arcs = Array.of_list (!mw_arcs @ !fiber_arcs) in
          (* No explicit upper bound: each bound would cost a tableau
             row, and minimization plus flow conservation already keeps
             optimal flows in [0, 1]. *)
          let fvar = Array.map (fun _ -> Model.add_var m) arcs in
          flow_vars := !flow_vars + Array.length fvar;
          let coeff = h /. d.(s).(t) in
          Array.iteri
            (fun k a -> objective_terms := (coeff *. a.len, fvar.(k)) :: !objective_terms)
            arcs;
          List.iter
            (fun node ->
              let rhs = if node = s then 1.0 else if node = t then -1.0 else 0.0 in
              let terms = ref [] in
              Array.iteri
                (fun k a ->
                  if a.u = node then terms := (1.0, fvar.(k)) :: !terms;
                  if a.v = node then terms := (-1.0, fvar.(k)) :: !terms)
                arcs;
              if (not (List.is_empty !terms)) || not (Float.equal rhs 0.0) then
                Model.add_constraint m !terms Model.Eq rhs)
            node_list;
          Array.iteri
            (fun k a ->
              match a.link with
              | None -> ()
              | Some l ->
                if strong_linking then
                  Model.add_constraint m [ (1.0, fvar.(k)); (-1.0, x.(l)) ] Model.Le 0.0
                else begin
                  let bucket =
                    match Hashtbl.find_opt link_usage l with
                    | Some b -> b
                    | None ->
                      let b = ref [] in
                      Hashtbl.add link_usage l b;
                      b
                  in
                  bucket := (1.0, fvar.(k)) :: !bucket
                end)
            arcs
        end
      end
    done
  done;
  if not strong_linking then
    (* ascending link order, for a stable constraint-row order *)
    Cisp_util.Tbl.iter_sorted ~compare:Int.compare
      (fun l bucket ->
        let count = float_of_int (List.length !bucket) in
        Model.add_constraint m ((-.count, x.(l)) :: !bucket) Model.Le 0.0)
      link_usage;
  Model.set_objective m !objective_terms;
  { model = m; x; cands; f_commodities = !commodities; f_flow_vars = !flow_vars }

let design ?time_limit_s ?strong_linking ?oracle_pruning (inputs : Inputs.t) ~budget
    ~candidates =
  let f = formulate ?strong_linking ?oracle_pruning inputs ~budget ~candidates in
  let outcome = Milp.solve ?time_limit_s f.model in
  let built =
    match outcome.Milp.x with
    | None -> []
    | Some sol ->
      let acc = ref [] in
      Array.iteri (fun l v -> if Model.value sol v > 0.5 then acc := f.cands.(l) :: !acc) f.x;
      !acc
  in
  let topo = Topology.of_links inputs built in
  ( topo,
    {
      commodities = f.f_commodities;
      flow_vars = f.f_flow_vars;
      nodes_explored = outcome.Milp.nodes_explored;
      lp_solves = outcome.Milp.lp_solves;
      milp_status = outcome.Milp.status;
    } )
