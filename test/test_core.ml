(* Tests for the Core facade: paper data, report rendering, experiment
   plumbing (single cells; the full tables run in test_integration). *)

module Metrics = Core.Metrics
module Policy = Core.Policy

(* --- Paper_data --------------------------------------------------------- *)

let test_paper_table_shapes () =
  Alcotest.(check int) "table1 benchmarks" 4 (Array.length Core.Paper_data.table1);
  Alcotest.(check int) "table2 benchmarks" 4 (Array.length Core.Paper_data.table2);
  Alcotest.(check int) "table3 benchmarks" 4 (Array.length Core.Paper_data.table3)

let test_paper_reductions_positive () =
  let m2, a2 = Core.Paper_data.table2_avg_reduction in
  let m3, a3 = Core.Paper_data.table3_avg_reduction in
  Alcotest.(check bool) "table2 positive" true (m2 > 0.0 && a2 > 0.0);
  Alcotest.(check bool) "table3 positive" true (m3 > 0.0 && a3 > 0.0)

let test_paper_h3_claim_holds_in_published_data () =
  (* Sanity of our transcription: in the paper's own Table 1, H3's average
     temperature is never above H2's, on either architecture. *)
  Array.iter
    (fun (g : Core.Paper_data.table1_group) ->
      Alcotest.(check bool) "cosynth h3 <= h2" true
        (g.Core.Paper_data.h3_cosynth.Core.Paper_data.avg_temp
         <= g.Core.Paper_data.h2_cosynth.Core.Paper_data.avg_temp +. 1e-9);
      Alcotest.(check bool) "platform h3 <= h2" true
        (g.Core.Paper_data.h3_platform.Core.Paper_data.avg_temp
         <= g.Core.Paper_data.h2_platform.Core.Paper_data.avg_temp +. 1e-9))
    Core.Paper_data.table1

let test_paper_thermal_wins_every_row () =
  Array.iter
    (fun (v : Core.Paper_data.versus) ->
      Alcotest.(check bool) "max temp" true
        (v.Core.Paper_data.thermal.Core.Paper_data.max_temp
         <= v.Core.Paper_data.power.Core.Paper_data.max_temp);
      Alcotest.(check bool) "avg temp" true
        (v.Core.Paper_data.thermal.Core.Paper_data.avg_temp
         <= v.Core.Paper_data.power.Core.Paper_data.avg_temp))
    (Array.append Core.Paper_data.table2 Core.Paper_data.table3)

(* --- Experiments: single cells ------------------------------------------ *)

(* Table cells run through the campaign runner, the tables' one driver. *)
module Campaign = Core.Campaign

let table_cell ~arch ~policy =
  {
    Campaign.graph = Campaign.Bench 0;
    policy;
    platform =
      { Campaign.arch; ambient = 45.0; power_budget = None; pins = []; isolation = [] };
  }

let test_run_cell_platform_cell () =
  let r =
    Campaign.run_cell (table_cell ~arch:(Campaign.Platform 4) ~policy:Policy.Baseline)
  in
  Alcotest.(check bool) "power band" true
    (r.Campaign.total_power > 1.0 && r.Campaign.total_power < 100.0);
  Alcotest.(check bool) "temp band" true
    (r.Campaign.max_temp > 45.0 && r.Campaign.max_temp < 200.0)

let test_run_cell_deterministic () =
  let cell () =
    Campaign.run_cell (table_cell ~arch:Campaign.Cosynth ~policy:Policy.Thermal_aware)
  in
  let a = cell () and b = cell () in
  Alcotest.(check (float 0.0)) "repeatable" a.Campaign.max_temp b.Campaign.max_temp

let test_average_reduction_arithmetic () =
  let mk total_power max_temp avg_temp = { Metrics.total_power; max_temp; avg_temp } in
  let rows =
    [
      { Core.Experiments.bench = "x"; power = mk 1.0 100.0 90.0; thermal = mk 1.0 90.0 86.0 };
      { Core.Experiments.bench = "y"; power = mk 1.0 80.0 70.0; thermal = mk 1.0 74.0 68.0 };
    ]
  in
  let r = Core.Experiments.average_reduction rows in
  Alcotest.(check (float 1e-9)) "max" 8.0 r.Core.Experiments.d_max_temp;
  Alcotest.(check (float 1e-9)) "avg" 3.0 r.Core.Experiments.d_avg_temp

let test_workload_balance_thermal_balances () =
  let balances = Core.Experiments.workload_balance ~bench:0 in
  Alcotest.(check int) "all policies measured" 5 (List.length balances);
  List.iter
    (fun (_, spread) ->
      Alcotest.(check bool) "spread in [0,1]" true (spread >= 0.0 && spread <= 1.0))
    balances

(* --- Report ------------------------------------------------------------- *)

let contains haystack needle =
  let ln = String.length needle and lh = String.length haystack in
  let rec scan i = i + ln <= lh && (String.sub haystack i ln = needle || scan (i + 1)) in
  scan 0

let fake_cell p m a = { Metrics.total_power = p; max_temp = m; avg_temp = a }

let fake_versus_rows () =
  List.map
    (fun bench ->
      {
        Core.Experiments.bench;
        power = fake_cell 20.0 110.0 100.0;
        thermal = fake_cell 18.0 100.0 95.0;
      })
    [ "Bm1"; "Bm2"; "Bm3"; "Bm4" ]

let test_report_table2_renders () =
  let text = Core.Report.table2 (fake_versus_rows ()) in
  Alcotest.(check bool) "title" true (contains text "Table 2");
  Alcotest.(check bool) "benchmark" true (contains text "Bm3");
  Alcotest.(check bool) "paper row" true (contains text "paper");
  Alcotest.(check bool) "reduction" true (contains text "average reduction")

let test_report_table1_renders () =
  let rows =
    List.concat_map
      (fun bench ->
        List.map
          (fun policy ->
            {
              Core.Experiments.bench;
              policy;
              cosynth = fake_cell 20.0 110.0 100.0;
              platform = fake_cell 15.0 95.0 90.0;
            })
          [
            Policy.Baseline;
            Policy.Power_aware Policy.Min_task_power;
            Policy.Power_aware Policy.Min_pe_average_power;
            Policy.Power_aware Policy.Min_task_energy;
          ])
      [ "Bm1"; "Bm2"; "Bm3"; "Bm4" ]
  in
  let text = Core.Report.table1 rows in
  Alcotest.(check bool) "title" true (contains text "Table 1");
  Alcotest.(check bool) "policies present" true
    (contains text "h1" && contains text "h2" && contains text "h3")

let test_report_csv () =
  let csv = Core.Report.versus_csv (fake_versus_rows ()) in
  Alcotest.(check bool) "header" true
    (contains csv "bench,power_total_w");
  (* Header + 4 data lines. *)
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "line count" 5 (List.length lines)

let test_report_markdown () =
  let md = Core.Report.versus_markdown ~title:"T" ~paper:Core.Paper_data.table3
      (fake_versus_rows ()) in
  Alcotest.(check bool) "heading" true (contains md "## T");
  Alcotest.(check bool) "table row" true (contains md "| Bm1 |");
  Alcotest.(check bool) "reduction line" true (contains md "Average reduction");
  let rows =
    List.concat_map
      (fun bench ->
        List.map
          (fun policy ->
            { Core.Experiments.bench; policy;
              cosynth = fake_cell 20.0 110.0 100.0;
              platform = fake_cell 15.0 95.0 90.0 })
          [ Policy.Baseline; Policy.Power_aware Policy.Min_task_power;
            Policy.Power_aware Policy.Min_pe_average_power;
            Policy.Power_aware Policy.Min_task_energy ])
      [ "Bm1"; "Bm2"; "Bm3"; "Bm4" ]
  in
  let md1 = Core.Report.table1_markdown rows in
  Alcotest.(check bool) "table1 rows" true (contains md1 "| Bm4 | h3 |")

let test_report_shape_checks_render () =
  let text =
    Core.Report.shape_checks
      [
        { Core.Experiments.check = "demo"; holds = true; detail = "ok" };
        { Core.Experiments.check = "demo2"; holds = false; detail = "boom" };
      ]
  in
  Alcotest.(check bool) "pass" true (contains text "[PASS] demo");
  Alcotest.(check bool) "fail" true (contains text "[FAIL] demo2")

(* --- Facade helpers ------------------------------------------------------ *)

let test_schedule_platform_shortcut () =
  let o = Core.schedule_platform ~policy:Policy.Baseline (Core.Benchmarks.load 0) in
  Alcotest.(check int) "four PEs" 4 (Core.Schedule.n_pes o.Core.Flow.schedule)

let test_schedule_cosynthesis_shortcut () =
  let o = Core.schedule_cosynthesis ~policy:Policy.Baseline (Core.Benchmarks.load 0) in
  Alcotest.(check bool) "meets deadline" true
    (Core.Schedule.meets_deadline o.Core.Flow.schedule)

let test_version () =
  Alcotest.(check bool) "non-empty" true (String.length Core.version > 0)

let () =
  Runner.run "core"
    [
      ( "paper_data",
        [
          Alcotest.test_case "shapes" `Quick test_paper_table_shapes;
          Alcotest.test_case "reductions positive" `Quick test_paper_reductions_positive;
          Alcotest.test_case "h3 claim in published data" `Quick
            test_paper_h3_claim_holds_in_published_data;
          Alcotest.test_case "thermal wins every row" `Quick
            test_paper_thermal_wins_every_row;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "platform cell" `Quick test_run_cell_platform_cell;
          Alcotest.test_case "deterministic" `Quick test_run_cell_deterministic;
          Alcotest.test_case "average reduction" `Quick test_average_reduction_arithmetic;
          Alcotest.test_case "workload balance" `Quick
            test_workload_balance_thermal_balances;
        ] );
      ( "report",
        [
          Alcotest.test_case "table2" `Quick test_report_table2_renders;
          Alcotest.test_case "table1" `Quick test_report_table1_renders;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "shape checks" `Quick test_report_shape_checks_render;
          Alcotest.test_case "markdown" `Quick test_report_markdown;
        ] );
      ( "facade",
        [
          Alcotest.test_case "platform shortcut" `Quick test_schedule_platform_shortcut;
          Alcotest.test_case "cosynthesis shortcut" `Quick
            test_schedule_cosynthesis_shortcut;
          Alcotest.test_case "version" `Quick test_version;
        ] );
    ]
