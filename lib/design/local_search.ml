let objective inputs topo = Topology.mean_stretch inputs (Topology.distances topo)

let traffic_total (inputs : Inputs.t) =
  let n = Inputs.n_sites inputs in
  let den = ref 0.0 in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t then den := !den +. inputs.traffic.(s).(t)
    done
  done;
  Float.max 1e-300 !den

(* Sweeps at most [passes] times; each swap round considers the
   [swap_pool] weakest built links for removal. *)
let passes = 3
let swap_pool = 20

let improve (inputs : Inputs.t) ~budget ~candidates topo =
  let w = Greedy.weight_matrix inputs in
  let den = traffic_total inputs in
  let current = ref topo in
  let current_obj = ref (objective inputs topo) in
  let try_additions () =
    (* Greedy fill of any remaining budget from the candidate pool. *)
    let d = ref (Topology.distances !current) in
    let improved = ref false in
    let rec fill () =
      let slack = budget - !current.Topology.cost in
      let best = ref None in
      List.iter
        (fun (i, j) ->
          if (not (Topology.is_built !current i j)) && Topology.link_cost inputs i j <= slack
          then begin
            let b = Greedy.benefit inputs w !d (i, j) in
            match !best with
            | Some (_, b') when b' >= b -> ()
            | _ -> if b > 1e-15 then best := Some ((i, j), b)
          end)
        candidates;
      match !best with
      | Some (pair, _) ->
        current := Topology.add !current pair;
        d := Topology.distances_incremental inputs !d pair;
        improved := true;
        fill ()
      | None -> ()
    in
    fill ();
    if !improved then current_obj := objective inputs !current;
    !improved
  in
  let try_swaps () =
    let built = !current.Topology.built in
    if built = [] then false
    else begin
      (* Cheap ranking: links carrying the least traffic per tower are
         the likeliest swap victims.  One routing pass instead of one
         all-pairs recomputation per built link. *)
      let loads = Capacity.route_loads inputs !current ~aggregate_gbps:1.0 in
      let ranked_pairs =
        List.map
          (fun (pair, load) ->
            let i, j = pair in
            (load /. float_of_int (max 1 (Topology.link_cost inputs i j)), pair))
          loads
        |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
        |> List.map snd
      in
      let rec take k = function
        | [] -> []
        | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
      in
      (* First improvement: the metric closure of each examined
         removal is computed once, and the scan stops at the first
         swap that lowers the objective. *)
      let rec scan = function
        | [] -> false
        | removed_pair :: rest -> (
          let without = Topology.remove !current removed_pair in
          let d_without = Topology.distances without in
          let without_obj = Topology.mean_stretch inputs d_without in
          let slack = budget - without.Topology.cost in
          let improves (i, j) =
            (i, j) <> removed_pair
            && (not (Topology.is_built without i j))
            && Topology.link_cost inputs i j <= slack
            && without_obj -. (Greedy.benefit inputs w d_without (i, j) /. den)
               < !current_obj -. 1e-12
          in
          match List.find_opt improves candidates with
          | Some pair ->
            current := Topology.add without pair;
            current_obj := objective inputs !current;
            true
          | None -> scan rest)
      in
      scan (take swap_pool ranked_pairs)
    end
  in
  let rec sweep k =
    if k = 0 then ()
    else begin
      let a = try_additions () in
      let s = try_swaps () in
      if a || s then sweep (k - 1)
    end
  in
  sweep passes;
  !current
