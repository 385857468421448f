(* Fig 13: web page and object load times when RTTs shrink to 0.33x,
   fully or selectively (client-to-server only). *)

module Web = Cisp_apps.Web

let median l = Cisp_util.Stats.median (Array.of_list l)

let run ctx =
  Ctx.section "Fig 13: web PLT and object load times under reduced RTTs";
  let count = if ctx.Ctx.quick then 40 else 80 in
  let pages = Web.generate ~count in
  let plt scaling = List.map (fun p -> Web.plt_ms p scaling) pages in
  let base = plt Web.baseline in
  let cisp = plt Web.cisp in
  let selective = plt Web.cisp_selective in
  let m_base = median base and m_cisp = median cisp and m_sel = median selective in
  Printf.printf "median PLT: baseline=%.0f ms  cISP=%.0f ms (-%.0f%%, -%.0f ms)  selective=%.0f ms (-%.0f%%, -%.0f ms)\n"
    m_base m_cisp
    (100.0 *. (m_base -. m_cisp) /. m_base) (m_base -. m_cisp)
    m_sel
    (100.0 *. (m_base -. m_sel) /. m_base) (m_base -. m_sel);
  Printf.printf "(paper: -31%% / -302 ms full; -27%% / -265 ms selective)\n";
  (* Object-level. *)
  let olts scaling = List.concat_map (fun p -> Web.object_load_times_ms p scaling) pages in
  let o_base = olts Web.baseline and o_cisp = olts Web.cisp in
  let mo_base = median o_base and mo_cisp = median o_cisp in
  Printf.printf "median object load: %.0f ms -> %.0f ms (-%.0f%%)   (paper: -49%%)\n" mo_base mo_cisp
    (100.0 *. (mo_base -. mo_cisp) /. mo_base);
  (* Small objects. *)
  let small scaling =
    List.concat_map
      (fun p ->
        List.filteri
          (fun i _ ->
            let o = List.nth p.Web.objects i in
            o.Web.size_bytes < Web.small_object_threshold_bytes)
          (Web.object_load_times_ms p scaling))
      pages
  in
  let s_base = small Web.baseline and s_cisp = small Web.cisp in
  (match (s_base, s_cisp) with
  | [], _ | _, [] -> Printf.printf "no small objects in corpus\n"
  | _ ->
    let ms_base = median s_base and ms_cisp = median s_cisp in
    Printf.printf "median small-object load: %.0f ms -> %.0f ms (-%.0f%%)   (paper: -59%%)\n"
      ms_base ms_cisp
      (100.0 *. (ms_base -. ms_cisp) /. ms_base));
  Printf.printf "client-to-server byte fraction: %.1f%%   (paper: 8.5%%)\n%!"
    (100.0 *. Web.c2s_byte_fraction pages);
  (* CDF sketch for Fig 13(a). *)
  let cdf_points xs =
    let arr = Array.of_list xs in
    List.map (fun p -> Cisp_util.Stats.percentile arr p) [ 10.0; 25.0; 50.0; 75.0; 90.0 ]
  in
  let show name xs =
    Printf.printf "%-10s" name;
    List.iter (fun v -> Printf.printf "%8.0f" v) (cdf_points xs);
    Printf.printf "\n"
  in
  Printf.printf "PLT percentiles (ms):   p10     p25     p50     p75     p90\n";
  show "baseline" base;
  show "cisp" cisp;
  show "selective" selective;
  Printf.printf "%!"
