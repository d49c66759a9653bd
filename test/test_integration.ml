(* Integration tests: the full experiment pipeline, end to end.

   These regenerate the paper's Tables 1-3 through their one driver,
   Experiments.tables (the "table1"-"table3" campaign builtins' cells, each
   run once through Campaign.run_cell; the same computation as
   `dune exec bench/main.exe`), check it bit for bit against
   Campaign.collect on the same builtins and across pool sizes, and assert
   the reproduction's shape criteria from DESIGN.md section 2, plus
   cross-cutting invariants that only hold when every subsystem cooperates
   (scheduler x floorplanner x thermal model x co-synthesis). *)

module Policy = Core.Policy
module Metrics = Core.Metrics
module Flow = Core.Flow
module Schedule = Core.Schedule
module Campaign = Core.Campaign

(* The tables are computed once and shared across test cases. *)
let tables = lazy (Core.Experiments.tables ())
let table1 () = (Lazy.force tables).Core.Experiments.table1
let table2 () = (Lazy.force tables).Core.Experiments.table2
let table3 () = (Lazy.force tables).Core.Experiments.table3

let builtin name =
  match Campaign.builtin name with
  | Some spec -> spec
  | None -> Alcotest.failf "no builtin campaign %s" name

let test_builtins_share_40_cells () =
  (* Tables 2 and 3 repeat Table 1's 8 h3 cells. *)
  let ids =
    List.concat_map
      (fun name -> List.map Campaign.cell_id (Campaign.expand (builtin name)))
      [ "table1"; "table2"; "table3" ]
  in
  Alcotest.(check int) "cells over the three builtins" 48 (List.length ids);
  Alcotest.(check int) "distinct cell ids" 40
    (List.length (List.sort_uniq String.compare ids))

let test_tables_match_campaign_collect () =
  (* Every row of the tables, bit for bit, against the cell of the same
     benchmark, policy and architecture that Campaign.collect computes on
     the table's builtin — found by lookup, not by position. *)
  let bits = Int64.bits_of_float in
  let check name rows_cells =
    let cells = (Campaign.collect (builtin name)).Campaign.cells in
    Alcotest.(check int) (name ^ " cell count") (List.length cells)
      (List.length rows_cells);
    List.iter
      (fun (bench, policy, arch, (c : Metrics.row)) ->
        let cell, (r : Campaign.result) =
          List.find
            (fun ((cell : Campaign.cell), _) ->
              Campaign.graph_label cell.Campaign.graph = bench
              && cell.Campaign.policy = policy
              && cell.Campaign.platform.Campaign.arch = arch)
            cells
        in
        if
          bits c.Metrics.total_power <> bits r.Campaign.total_power
          || bits c.Metrics.max_temp <> bits r.Campaign.max_temp
          || bits c.Metrics.avg_temp <> bits r.Campaign.avg_temp
        then Alcotest.failf "%s: %s differs" name (Campaign.cell_label cell))
      rows_cells
  in
  let h3 = Policy.Power_aware Policy.Min_task_energy in
  let versus arch rows =
    List.concat_map
      (fun (r : Core.Experiments.versus_row) ->
        [ (r.bench, h3, arch, r.power); (r.bench, Policy.Thermal_aware, arch, r.thermal) ])
      rows
  in
  check "table1"
    (List.concat_map
       (fun (r : Core.Experiments.table1_row) ->
         [
           (r.bench, r.policy, Campaign.Cosynth, r.cosynth);
           (r.bench, r.policy, Campaign.Platform 4, r.platform);
         ])
       (table1 ()));
  check "table2" (versus Campaign.Cosynth (table2 ()));
  check "table3" (versus (Campaign.Platform 4) (table3 ()))

let test_tables_identical_at_any_pool_size () =
  let saved = Core.Pool.default_jobs () in
  let render jobs =
    Core.Pool.set_default_jobs jobs;
    Core.Report.tables (Core.Experiments.tables ())
  in
  Fun.protect
    ~finally:(fun () -> Core.Pool.set_default_jobs saved)
    (fun () ->
      let one = render 1 in
      Alcotest.(check string) "jobs 1 vs jobs 2" one (render 2))

let test_table1_has_all_rows () =
  let rows = table1 () in
  Alcotest.(check int) "4 benchmarks x 4 policies" 16 (List.length rows);
  List.iter
    (fun (r : Core.Experiments.table1_row) ->
      Alcotest.(check bool) "policy is not thermal" true (r.policy <> Policy.Thermal_aware))
    rows

let test_all_shape_checks_pass () =
  let checks =
    Core.Experiments.shape_checks ~table1:(table1 ()) ~table2:(table2 ())
      ~table3:(table3 ())
  in
  Alcotest.(check int) "five criteria" 5 (List.length checks);
  List.iter
    (fun (c : Core.Experiments.shape_check) ->
      if not c.Core.Experiments.holds then
        Alcotest.failf "shape check failed: %s (%s)" c.Core.Experiments.check
          c.Core.Experiments.detail)
    checks

let test_thermal_beats_power_on_every_platform_benchmark () =
  (* Table 3, row by row — the strongest claim we reproduce. *)
  List.iter
    (fun (r : Core.Experiments.versus_row) ->
      Alcotest.(check bool) (r.bench ^ " max") true
        (r.thermal.Metrics.max_temp < r.power.Metrics.max_temp);
      Alcotest.(check bool) (r.bench ^ " avg") true
        (r.thermal.Metrics.avg_temp < r.power.Metrics.avg_temp);
      Alcotest.(check bool) (r.bench ^ " power") true
        (r.thermal.Metrics.total_power < r.power.Metrics.total_power))
    (table3 ())

let test_reductions_in_paper_band () =
  (* Multi-degree reductions, same order of magnitude as the paper (which
     reports ~10/7 and ~10/5 °C): between 2 and 40 °C on both axes. *)
  let check name (r : Core.Experiments.reduction) =
    Alcotest.(check bool) (name ^ " max band") true
      (r.Core.Experiments.d_max_temp > 2.0 && r.Core.Experiments.d_max_temp < 40.0);
    Alcotest.(check bool) (name ^ " avg band") true
      (r.Core.Experiments.d_avg_temp > 2.0 && r.Core.Experiments.d_avg_temp < 40.0)
  in
  check "table2" (Core.Experiments.average_reduction (table2 ()));
  check "table3" (Core.Experiments.average_reduction (table3 ()))

let test_temperatures_in_physical_band () =
  (* Every measured cell must be a plausible junction temperature. *)
  let check_cell (c : Metrics.row) =
    Alcotest.(check bool) "max in band" true
      (c.Metrics.max_temp > 50.0 && c.Metrics.max_temp < 160.0);
    Alcotest.(check bool) "avg <= max" true (c.Metrics.avg_temp <= c.Metrics.max_temp +. 1e-9)
  in
  List.iter
    (fun (r : Core.Experiments.table1_row) ->
      check_cell r.cosynth;
      check_cell r.platform)
    (table1 ());
  List.iter
    (fun (r : Core.Experiments.versus_row) ->
      check_cell r.power;
      check_cell r.thermal)
    (table2 () @ table3 ())

let test_figure1_flows_complete_stage_traces () =
  (* Figure 1: both flows execute their stages in order. *)
  let graph = Core.Benchmarks.load 1 in
  let platform =
    Flow.run_platform ~graph ~lib:(Core.Catalog.platform_library ())
      ~policy:Policy.Thermal_aware ()
  in
  let cosynth =
    Flow.run_cosynthesis ~graph ~lib:(Core.Catalog.default_library ())
      ~policy:Policy.Thermal_aware ()
  in
  let names o = List.map (fun (e : Flow.log_entry) -> Flow.stage_name e.Flow.stage) o.Flow.log in
  Alcotest.(check (list string)) "platform trace"
    [ "allocation"; "floorplanning"; "scheduling"; "thermal-extraction" ]
    (names platform);
  (* The co-synthesis loop may iterate; its trace is a non-empty sequence of
     complete rounds ending in thermal extraction. *)
  let trace = names cosynth in
  Alcotest.(check bool) "ends with extraction" true
    (List.length trace >= 4 && List.nth trace (List.length trace - 1) = "thermal-extraction");
  Alcotest.(check int) "round structure" 0 (List.length trace mod 3 mod 1);
  Alcotest.(check bool) "outer iterations recorded" true (cosynth.Flow.outer_iterations >= 1)

let test_every_flow_schedule_validates () =
  (* Cross-check: the schedules behind all Table 3 cells are structurally
     valid against the platform library. *)
  let lib = Core.Catalog.platform_library () in
  List.iter
    (fun policy ->
      List.iter
        (fun bench ->
          let graph = Core.Benchmarks.load bench in
          let o = Flow.run_platform ~graph ~lib ~policy () in
          let violations = Schedule.validate ~lib o.Flow.schedule in
          if violations <> [] then
            Alcotest.failf "bench %d policy %s: invalid schedule" bench
              (Policy.name policy))
        [ 0; 1; 2; 3 ])
    [ Policy.Power_aware Policy.Min_task_energy; Policy.Thermal_aware ]

let test_thermal_improves_workload_balance () =
  (* The paper's explanation for Table 3: the thermal ASP balances the
     workloads of all PEs. On Bm1 — the benchmark with the most slack, where
     the effect is purest — the thermal utilization spread must beat both
     the baseline and the power-aware representative. *)
  let spreads = Core.Experiments.workload_balance ~bench:0 in
  let get p = List.assoc p spreads in
  Alcotest.(check bool) "thermal more balanced than baseline" true
    (get Policy.Thermal_aware < get Policy.Baseline);
  Alcotest.(check bool) "thermal more balanced than h3" true
    (get Policy.Thermal_aware < get (Policy.Power_aware Policy.Min_task_energy))

let test_inquiry_counts_scale_with_candidates () =
  (* Thermal scheduling issues one HotSpot inquiry per (ready task, PE)
     candidate: the count must exceed tasks x PEs and stay finite. *)
  let graph = Core.Benchmarks.load 0 in
  let o =
    Flow.run_platform ~graph ~lib:(Core.Catalog.platform_library ())
      ~policy:Policy.Thermal_aware ()
  in
  let n = Core.Hotspot.inquiries o.Flow.hotspot in
  let tasks = Core.Graph.n_tasks graph in
  Alcotest.(check bool) "at least tasks x PEs" true (n >= tasks * 4);
  Alcotest.(check bool) "bounded by search budget" true (n < 1_000_000)

let check_against_golden ~what ~basename rendered =
  let golden =
    (* dune runtest runs in the (staged) test directory; dune exec from
       the project root. *)
    let path =
      let staged = "goldens/" ^ basename in
      if Sys.file_exists staged then staged else "test/goldens/" ^ basename
    in
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if String.trim rendered <> String.trim golden then begin
    (* Locate the first differing line for a readable failure. *)
    let rl = String.split_on_char '\n' (String.trim rendered)
    and gl = String.split_on_char '\n' (String.trim golden) in
    let rec first_diff i = function
      | r :: rs, g :: gs ->
          if String.equal r g then first_diff (i + 1) (rs, gs)
          else
            Alcotest.failf "%s diverge from golden at line %d:\n got: %s\nwant: %s"
              what i r g
      | r :: _, [] -> Alcotest.failf "extra output at line %d: %s" i r
      | [], g :: _ -> Alcotest.failf "missing output at line %d: %s" i g
      | [], [] -> Alcotest.failf "%s diverge from golden (whitespace only)" what
    in
    first_diff 1 (rl, gl)
  end

let test_tables_match_golden () =
  (* Byte-for-byte regression against the committed golden, which was
     captured before the linalg kernels were blocked. The blocked kernels
     preserve floating-point operation order, so any diff here is a real
     numerical regression, not rounding noise. Regenerate (only for
     intentional number changes) with:
       dune exec test/capture_goldens.exe > test/goldens/tables.golden *)
  check_against_golden ~what:"tables" ~basename:"tables.golden"
    (Core.Report.tables (Lazy.force tables))

let test_transient_matches_golden () =
  (* Same discipline for the runtime layer: the event-driven replay and
     the DTM loop on Bm1, byte for byte. The engine's exact stepper is
     bit-identical to the original backward-Euler loop, so this golden
     pins both the engine and the DTM closed loop. Regenerate (only for
     intentional number changes) with:
       dune exec test/capture_goldens.exe -- transient > test/goldens/transient.golden *)
  check_against_golden ~what:"transient/DTM numbers" ~basename:"transient.golden"
    (Core.Report.transient_demo (Core.Experiments.transient_demo ()))

let test_online_matches_golden () =
  (* And for the online subsystem: the zero/sporadic/trace scenarios vs the
     clairvoyant baseline on Bm1, byte for byte. The zero-stream row is the
     bit-identity proof in golden form — its ratio column must read exactly
     1.0000. Regenerate (only for intentional number changes) with:
       dune exec test/capture_goldens.exe -- online > test/goldens/online.golden *)
  check_against_golden ~what:"online scheduling numbers"
    ~basename:"online.golden"
    (Core.Report.online_demo (Core.Experiments.online_demo ()))

let test_campaign_matches_golden () =
  (* And for the campaign layer: the "golden" builtin campaign (mixed
     benchmark/generated graphs, both architectures' platform points,
     ambient and budget variation) rendered cell by cell, byte for byte.
     The same cells are what `tats campaign run` persists, so this golden
     pins the report formatting and the underlying flow numbers at once.
     Regenerate (only for intentional number changes) with:
       dune exec test/capture_goldens.exe -- campaign > test/goldens/campaign.golden *)
  check_against_golden ~what:"campaign summary" ~basename:"campaign.golden"
    (Core.Report.campaign_summary (Core.Experiments.campaign_demo ()))

let test_hetero_matches_golden () =
  (* And for the heterogeneous-platform layer: every builtin platform under
     two policies plus two constrained cells, rendered row by row, byte for
     byte. The trailing line pins the degeneracy anchor — the named
     single-kind std4 platform must stay bit-identical to the [?n_pes]
     sugar under all five policies. Regenerate (only for
     intentional number changes) with:
       dune exec test/capture_goldens.exe -- hetero > test/goldens/hetero.golden *)
  check_against_golden ~what:"hetero platform numbers" ~basename:"hetero.golden"
    (Core.Report.hetero_demo (Core.Experiments.hetero_demo ()))

let test_csv_exports_match_tables () =
  let csv = Core.Report.table1_csv (table1 ()) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 16 rows" 17 (List.length lines)

let () =
  Runner.run "integration"
    [
      ( "tables",
        [
          Alcotest.test_case "table1 complete" `Quick test_table1_has_all_rows;
          Alcotest.test_case "shape checks all pass" `Quick test_all_shape_checks_pass;
          Alcotest.test_case "thermal wins every platform row" `Quick
            test_thermal_beats_power_on_every_platform_benchmark;
          Alcotest.test_case "reductions in band" `Quick test_reductions_in_paper_band;
          Alcotest.test_case "temperatures physical" `Quick
            test_temperatures_in_physical_band;
          Alcotest.test_case "tables match golden" `Quick test_tables_match_golden;
          Alcotest.test_case "builtins share 40 cells" `Quick
            test_builtins_share_40_cells;
          Alcotest.test_case "tables match campaign collect" `Quick
            test_tables_match_campaign_collect;
          Alcotest.test_case "tables identical at any pool size" `Quick
            test_tables_identical_at_any_pool_size;
          Alcotest.test_case "transient matches golden" `Quick
            test_transient_matches_golden;
          Alcotest.test_case "online matches golden" `Quick
            test_online_matches_golden;
          Alcotest.test_case "campaign matches golden" `Quick
            test_campaign_matches_golden;
          Alcotest.test_case "hetero matches golden" `Quick
            test_hetero_matches_golden;
          Alcotest.test_case "csv export" `Quick test_csv_exports_match_tables;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "stage traces" `Quick test_figure1_flows_complete_stage_traces;
          Alcotest.test_case "schedules validate" `Quick test_every_flow_schedule_validates;
          Alcotest.test_case "workload balance" `Quick test_thermal_improves_workload_balance;
          Alcotest.test_case "inquiry counts" `Quick test_inquiry_counts_scale_with_candidates;
        ] );
    ]
