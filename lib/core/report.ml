module Metrics = Tats_sched.Metrics
module Policy = Tats_sched.Policy
module Pool = Tats_util.Pool

let pool_stats (s : Pool.stats) =
  let busy_total = Array.fold_left ( +. ) 0.0 s.Pool.busy in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "Execution pool: %d job%s, %d batch%s, %d tasks, %d steal%s, %d \
        park%s\n"
       s.Pool.jobs
       (if s.Pool.jobs = 1 then "" else "s")
       s.Pool.batches
       (if s.Pool.batches = 1 then "" else "es")
       s.Pool.tasks s.Pool.steals
       (if s.Pool.steals = 1 then "" else "s")
       s.Pool.parks
       (if s.Pool.parks = 1 then "" else "s"));
  Array.iteri
    (fun i b ->
      Buffer.add_string buf
        (Printf.sprintf "  domain %d%s  %8.3f s busy (%5.1f%%)\n" i
           (if i = 0 then " (caller)" else "         ")
           b
           (if busy_total <= 0.0 then 0.0 else 100.0 *. b /. busy_total)))
    s.Pool.busy;
  Buffer.contents buf

let cell_to_string (c : Metrics.row) =
  Printf.sprintf "%6.2f %7.2f %7.2f" c.Metrics.total_power c.Metrics.max_temp
    c.Metrics.avg_temp

let paper_cell_to_string (c : Paper_data.cell) =
  Printf.sprintf "%6.2f %7.2f %7.2f" c.Paper_data.total_power c.Paper_data.max_temp
    c.Paper_data.avg_temp

let header = "  Pow(W)  MaxT(C) AvgT(C)"

let paper_table1_cell bench policy arch =
  let g =
    Array.to_list Paper_data.table1
    |> List.find (fun (g : Paper_data.table1_group) -> String.equal g.bench bench)
  in
  match (policy, arch) with
  | Policy.Baseline, `Cosynth -> g.Paper_data.baseline_cosynth
  | Policy.Power_aware Policy.Min_task_power, `Cosynth -> g.Paper_data.h1_cosynth
  | Policy.Power_aware Policy.Min_pe_average_power, `Cosynth -> g.Paper_data.h2_cosynth
  | Policy.Power_aware Policy.Min_task_energy, `Cosynth -> g.Paper_data.h3_cosynth
  | Policy.Baseline, `Platform -> g.Paper_data.baseline_platform
  | Policy.Power_aware Policy.Min_task_power, `Platform -> g.Paper_data.h1_platform
  | Policy.Power_aware Policy.Min_pe_average_power, `Platform -> g.Paper_data.h2_platform
  | Policy.Power_aware Policy.Min_task_energy, `Platform -> g.Paper_data.h3_platform
  | Policy.Thermal_aware, _ -> invalid_arg "thermal is not a Table 1 policy"

let table1 rows =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Table 1 — power heuristics under co-synthesis and platform architectures\n";
  Buffer.add_string buf
    (Printf.sprintf "%-4s %-9s | measured co-synthesis%s | measured platform%s\n" ""
       "" header header);
  Buffer.add_string buf
    (Printf.sprintf "%-4s %-9s | paper    co-synthesis%s | paper    platform%s\n" ""
       "" header header);
  Buffer.add_string buf (String.make 118 '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun (r : Experiments.table1_row) ->
      Buffer.add_string buf
        (Printf.sprintf "%-4s %-9s | measured %s | measured %s\n" r.Experiments.bench
           (Policy.name r.Experiments.policy)
           (cell_to_string r.Experiments.cosynth)
           (cell_to_string r.Experiments.platform));
      Buffer.add_string buf
        (Printf.sprintf "%-4s %-9s | paper    %s | paper    %s\n" "" ""
           (paper_cell_to_string
              (paper_table1_cell r.Experiments.bench r.Experiments.policy `Cosynth))
           (paper_cell_to_string
              (paper_table1_cell r.Experiments.bench r.Experiments.policy `Platform))))
    rows;
  Buffer.contents buf

let versus_table ~title ~paper rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "%-4s          | power-aware%s | thermal-aware%s\n" "" header header);
  Buffer.add_string buf (String.make 100 '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun (r : Experiments.versus_row) ->
      Buffer.add_string buf
        (Printf.sprintf "%-4s measured | %s | %s\n" r.Experiments.bench
           (cell_to_string r.Experiments.power)
           (cell_to_string r.Experiments.thermal));
      let p =
        Array.to_list paper
        |> List.find (fun (v : Paper_data.versus) ->
               String.equal v.Paper_data.bench r.Experiments.bench)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-4s paper    | %s | %s\n" ""
           (paper_cell_to_string p.Paper_data.power)
           (paper_cell_to_string p.Paper_data.thermal)))
    rows;
  let r = Experiments.average_reduction rows in
  Buffer.add_string buf
    (Printf.sprintf
       "average reduction: measured %.2f °C max / %.2f °C avg  (paper: %.2f / %.2f)\n"
       r.Experiments.d_max_temp r.Experiments.d_avg_temp
       (fst (if paper == Paper_data.table2 then Paper_data.table2_avg_reduction
             else Paper_data.table3_avg_reduction))
       (snd (if paper == Paper_data.table2 then Paper_data.table2_avg_reduction
             else Paper_data.table3_avg_reduction)));
  Buffer.contents buf

let table2 rows =
  versus_table
    ~title:"Table 2 — power-aware vs thermal-aware, co-synthesis architecture"
    ~paper:Paper_data.table2 rows

let table3 rows =
  versus_table
    ~title:"Table 3 — power-aware vs thermal-aware, platform architecture"
    ~paper:Paper_data.table3 rows

let shape_checks checks =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Shape checks (reproduction criteria):\n";
  List.iter
    (fun (c : Experiments.shape_check) ->
      Buffer.add_string buf
        (Printf.sprintf "  [%s] %s — %s\n"
           (if c.Experiments.holds then "PASS" else "FAIL")
           c.Experiments.check c.Experiments.detail))
    checks;
  Buffer.contents buf

let tables (t : Experiments.tables) =
  String.concat "\n"
    [
      table1 t.Experiments.table1;
      table2 t.Experiments.table2;
      table3 t.Experiments.table3;
      shape_checks
        (Experiments.shape_checks ~table1:t.Experiments.table1
           ~table2:t.Experiments.table2 ~table3:t.Experiments.table3);
    ]

let versus_csv rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "bench,power_total_w,power_max_c,power_avg_c,thermal_total_w,thermal_max_c,thermal_avg_c\n";
  List.iter
    (fun (r : Experiments.versus_row) ->
      let p = r.Experiments.power and t = r.Experiments.thermal in
      Buffer.add_string buf
        (Printf.sprintf "%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n" r.Experiments.bench
           p.Metrics.total_power p.Metrics.max_temp p.Metrics.avg_temp
           t.Metrics.total_power t.Metrics.max_temp t.Metrics.avg_temp))
    rows;
  Buffer.contents buf

let table1_csv rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "bench,policy,cosynth_total_w,cosynth_max_c,cosynth_avg_c,platform_total_w,platform_max_c,platform_avg_c\n";
  List.iter
    (fun (r : Experiments.table1_row) ->
      let c = r.Experiments.cosynth and p = r.Experiments.platform in
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n" r.Experiments.bench
           (Policy.name r.Experiments.policy)
           c.Metrics.total_power c.Metrics.max_temp c.Metrics.avg_temp
           p.Metrics.total_power p.Metrics.max_temp p.Metrics.avg_temp))
    rows;
  Buffer.contents buf

let md_cell (c : Metrics.row) =
  Printf.sprintf "%.2f / %.2f / %.2f" c.Metrics.total_power c.Metrics.max_temp
    c.Metrics.avg_temp

let md_paper_cell (c : Paper_data.cell) =
  Printf.sprintf "%.2f / %.2f / %.2f" c.Paper_data.total_power c.Paper_data.max_temp
    c.Paper_data.avg_temp

let versus_markdown ~title ~paper rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "## %s\n\n" title);
  Buffer.add_string buf
    "| Bench | measured power | measured thermal | paper power | paper thermal |\n";
  Buffer.add_string buf "|---|---|---|---|---|\n";
  List.iter
    (fun (r : Experiments.versus_row) ->
      let p =
        Array.to_list paper
        |> List.find (fun (v : Paper_data.versus) ->
               String.equal v.Paper_data.bench r.Experiments.bench)
      in
      Buffer.add_string buf
        (Printf.sprintf "| %s | %s | %s | %s | %s |\n" r.Experiments.bench
           (md_cell r.Experiments.power)
           (md_cell r.Experiments.thermal)
           (md_paper_cell p.Paper_data.power)
           (md_paper_cell p.Paper_data.thermal)))
    rows;
  let r = Experiments.average_reduction rows in
  Buffer.add_string buf
    (Printf.sprintf "\nAverage reduction: **%.2f °C max / %.2f °C avg**.\n"
       r.Experiments.d_max_temp r.Experiments.d_avg_temp);
  Buffer.contents buf

let table1_markdown rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "## Table 1 — power heuristics, both architectures\n\n";
  Buffer.add_string buf
    "| Bench | Policy | measured co-synth | paper co-synth | measured platform | \
     paper platform |\n|---|---|---|---|---|---|\n";
  List.iter
    (fun (r : Experiments.table1_row) ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %s | %s | %s | %s | %s |\n" r.Experiments.bench
           (Policy.name r.Experiments.policy)
           (md_cell r.Experiments.cosynth)
           (md_paper_cell
              (paper_table1_cell r.Experiments.bench r.Experiments.policy `Cosynth))
           (md_cell r.Experiments.platform)
           (md_paper_cell
              (paper_table1_cell r.Experiments.bench r.Experiments.policy `Platform))))
    rows;
  Buffer.contents buf

let transient_demo (d : Experiments.transient_demo) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "Transient replay — %s, thermal-aware platform schedule\n\
        period %.6f s, dt %.6f s, %d periods, %d steps\n"
       d.Experiments.t_bench d.Experiments.period_s d.Experiments.dt_s
       d.Experiments.t_periods d.Experiments.t_steps);
  Buffer.add_string buf "PE  steady °C  transient peak °C  ripple °C\n";
  Array.iteri
    (fun pe peak ->
      let st = d.Experiments.pe_steady.(pe) in
      Buffer.add_string buf
        (Printf.sprintf "%2d   %8.4f           %8.4f    %+7.4f\n" pe st peak
           (peak -. st)))
    d.Experiments.pe_transient_peak;
  Buffer.add_string buf
    (Printf.sprintf
       "DTM (trigger 70 °C): makespan %.4f, peak %.4f °C, throttled %.6f\n"
       d.Experiments.dtm_makespan d.Experiments.dtm_peak
       d.Experiments.dtm_throttled);
  Buffer.contents buf

let online_demo (d : Experiments.online_demo) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Online scheduling vs clairvoyant — %s, platform, sporadic seed %d\n"
       d.Experiments.o_bench d.Experiments.o_seed);
  Buffer.add_string buf
    "arrivals  policy    ev dfr   makespan  clairvoyant  ratio     peak °C  \
     clair °C   ratio\n";
  List.iter
    (fun (r : Experiments.online_row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-8s  %-8s %3d %3d  %9.4f    %9.4f %6.4f   %8.4f  %8.4f  %6.4f\n"
           r.Experiments.o_arrivals r.Experiments.o_policy r.Experiments.o_events
           r.Experiments.o_deferrals r.Experiments.o_makespan
           r.Experiments.o_clair_makespan r.Experiments.o_makespan_ratio
           r.Experiments.o_peak r.Experiments.o_clair_peak
           r.Experiments.o_peak_ratio))
    d.Experiments.o_rows;
  Buffer.contents buf

let hetero_demo (d : Experiments.hetero_demo) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Heterogeneous platforms — %s, platform flow\n"
       d.Experiments.h_bench);
  Buffer.add_string buf
    "platform    slots                      policy    pins cls   makespan  \
     tot pow W  max T °C  avg T °C      cost\n";
  List.iter
    (fun (r : Experiments.hetero_row) ->
      Buffer.add_string buf
        (Printf.sprintf
           "%-10s  %-25s  %-8s  %4d %3d  %9.4f  %9.4f  %8.4f  %8.4f  %8.1f\n"
           r.Experiments.h_platform r.Experiments.h_slots
           (Policy.name r.Experiments.h_policy)
           r.Experiments.h_pins r.Experiments.h_classes r.Experiments.h_makespan
           r.Experiments.h_cell.Metrics.total_power
           r.Experiments.h_cell.Metrics.max_temp
           r.Experiments.h_cell.Metrics.avg_temp r.Experiments.h_arch_cost))
    d.Experiments.h_rows;
  Buffer.add_string buf
    (Printf.sprintf "degenerate std4 == identical-cores path (all policies): %s\n"
       (if d.Experiments.h_degenerate_identical then "bit-identical"
        else "DIVERGED"));
  Buffer.contents buf

let campaign_summary (s : Tats_campaign.Campaign.summary) =
  let module C = Tats_campaign.Campaign in
  let buf = Buffer.create 2048 in
  let cells = s.C.cells in
  let n = List.length cells in
  let distinct label =
    List.length (List.sort_uniq compare (List.map label cells))
  in
  Buffer.add_string buf
    (Printf.sprintf "Campaign %s — %d cells (%d graphs x %d policies x %d platforms)\n"
       s.C.campaign_name n
       (distinct (fun ((c : C.cell), _) -> C.graph_label c.C.graph))
       (distinct (fun ((c : C.cell), _) -> Tats_sched.Policy.name c.C.policy))
       (distinct (fun ((c : C.cell), _) -> C.platform_label c.C.platform)));
  Buffer.add_string buf
    "graph      policy    arch      ambient   budget    makespan   tot pow W  \
     max T °C  avg T °C  deadline\n";
  let met = ref 0 and within = ref 0 in
  let peak = ref neg_infinity and peak_cell = ref "" in
  List.iter
    (fun ((c : C.cell), (r : C.result)) ->
      if r.C.deadline_met then incr met;
      if r.C.within_budget then incr within;
      if r.C.max_temp > !peak then begin
        peak := r.C.max_temp;
        peak_cell := C.cell_label c
      end;
      let arch =
        match c.C.platform.C.arch with
        | C.Platform n_pes -> Printf.sprintf "p%d" n_pes
        | C.Hetero name -> name
        | C.Cosynth -> "cosynth"
      in
      let budget =
        match c.C.platform.C.power_budget with
        | None -> "-"
        | Some b -> Printf.sprintf "%g" b
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%-10s %-9s %-8s %8.1f %8s %11.4f %11.4f %9.4f %9.4f %9.1f %s %s\n"
           (C.graph_label c.C.graph)
           (Tats_sched.Policy.name c.C.policy)
           arch c.C.platform.C.ambient budget r.C.makespan r.C.total_power
           r.C.max_temp r.C.avg_temp r.C.deadline
           (if r.C.deadline_met then "met" else "MISS")
           (if r.C.within_budget then "ok" else "OVER")))
    cells;
  Buffer.add_string buf
    (Printf.sprintf
       "deadline met %d/%d, within budget %d/%d; peak %.4f °C (%s)\n" !met n
       !within n !peak !peak_cell);
  Buffer.contents buf

let campaign_gate (g : Tats_campaign.Campaign.gate_report) =
  let module C = Tats_campaign.Campaign in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "campaign gate: compared %d cells — %d clean, %d drifted, %d regressed, \
        %d missing, %d extra\n"
       g.C.compared g.C.clean
       (List.length g.C.drifted)
       (List.length g.C.regressed)
       (List.length g.C.missing)
       (List.length g.C.extra));
  let finding tag (f : C.finding) =
    Buffer.add_string buf
      (Printf.sprintf "  %-6s %s %s %.4f -> %.4f (%+.4f, tol %.4f)\n" tag
         f.C.g_cell f.C.g_metric f.C.g_base f.C.g_cand (f.C.g_cand -. f.C.g_base)
         f.C.g_tol)
  in
  List.iter (finding "drift") g.C.drifted;
  List.iter (finding "REGR") g.C.regressed;
  List.iter
    (fun label -> Buffer.add_string buf (Printf.sprintf "  MISSING %s\n" label))
    g.C.missing;
  List.iter
    (fun label -> Buffer.add_string buf (Printf.sprintf "  extra   %s\n" label))
    g.C.extra;
  Buffer.add_string buf
    (if C.gate_passes g then "verdict: PASS\n" else "verdict: FAIL\n");
  Buffer.contents buf
