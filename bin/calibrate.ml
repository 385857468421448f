(* Dev tool: sanity-check the synthetic substrates at full scale. *)

let () =
  let t0 = Unix.gettimeofday () in
  let centers = Cisp_data.Sites.us_population_centers () in
  Printf.printf "US population centers: %d\n%!" (List.length centers);
  let top5 = Cisp_data.Sites.coalesce Cisp_data.Us_cities.all in
  (match top5 with
  | c :: _ -> Printf.printf "largest: %s pop=%d\n%!" c.Cisp_data.City.name c.population
  | [] -> ());
  let dem = Cisp_terrain.Dem.create Cisp_terrain.Dem.Us_continental in
  let cache = Cisp_terrain.Dem_cache.create dem in
  (* sample elevations *)
  let denver = Cisp_geo.Coord.make ~lat:39.74 ~lon:(-104.98) in
  let chicago = Cisp_geo.Coord.make ~lat:41.88 ~lon:(-87.63) in
  let rockies = Cisp_geo.Coord.make ~lat:39.5 ~lon:(-106.8) in
  Printf.printf "elev denver=%.0f chicago=%.0f rockies=%.0f\n%!"
    (Cisp_terrain.Dem.elevation_m dem denver)
    (Cisp_terrain.Dem.elevation_m dem chicago)
    (Cisp_terrain.Dem.elevation_m dem rockies);
  let towers = Cisp_towers.Synth.generate ~dem ~sites:centers () in
  Printf.printf "raw towers: %d (%.1fs)\n%!" (List.length towers) (Unix.gettimeofday () -. t0);
  let culled = Cisp_towers.Culling.apply towers in
  Printf.printf "culled towers: %d\n%!" (List.length culled);
  let t1 = Unix.gettimeofday () in
  let hops = Cisp_towers.Hops.build ~cache ~sites:centers ~towers:culled () in
  Printf.printf "feasible tower-tower hops: %d (%.1fs)\n%!" hops.feasible_hops
    (Unix.gettimeofday () -. t1);
  let _, evaluations = Cisp_terrain.Dem_cache.stats cache in
  Printf.printf "dem evaluations: %d\n%!" evaluations;
  (* Pairwise link stats *)
  let t2 = Unix.gettimeofday () in
  let links = Cisp_towers.Hops.all_links hops in
  let n = hops.n_sites in
  let stretches = ref [] in
  let unreachable = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match links.(i).(j) with
      | Some l -> stretches := Cisp_towers.Hops.link_stretch l :: !stretches
      | None -> incr unreachable
    done
  done;
  let arr = Array.of_list !stretches in
  Printf.printf "links: %d reachable, %d unreachable (%.1fs)\n%!" (Array.length arr)
    !unreachable (Unix.gettimeofday () -. t2);
  if Array.length arr > 0 then begin
    let s = Cisp_util.Stats.summarize arr in
    Format.printf "link stretch: %a@." Cisp_util.Stats.pp_summary s
  end;
  (* A couple of named examples *)
  let centers_arr = Array.of_list centers in
  let find name =
    let rec go i =
      if i >= Array.length centers_arr then -1
      else if String.length centers_arr.(i).Cisp_data.City.name >= String.length name
              && String.sub centers_arr.(i).Cisp_data.City.name 0 (String.length name) = name
      then i
      else go (i + 1)
    in
    go 0
  in
  let show a b =
    let ia = find a and ib = find b in
    if ia >= 0 && ib >= 0 then begin
      match links.(ia).(ib) with
      | Some l ->
        Printf.printf "%s -> %s: mw=%.0fkm geo=%.0fkm stretch=%.3f towers=%d\n%!" a b
          l.distance_km l.geodesic_km (Cisp_towers.Hops.link_stretch l) l.tower_count
      | None -> Printf.printf "%s -> %s: UNREACHABLE\n%!" a b
    end
  in
  show "New York" "Chicago";
  show "Chicago" "San Francisco";
  show "Austin" "Killeen";
  Printf.printf "total %.1fs\n%!" (Unix.gettimeofday () -. t0)
