(* tats — command-line interface to the thermal-aware task allocation and
   scheduling library.

   Subcommands regenerate the paper's tables, run single scheduling
   experiments, inspect the thermal model and the floorplanner, and export
   task graphs.  `tats <cmd> --help` documents each one. *)

open Cmdliner

(* --- shared arguments --------------------------------------------------- *)

let bench_arg =
  let doc = "Benchmark: Bm1, Bm2, Bm3 or Bm4 (the paper's suite)." in
  Arg.(value & opt string "Bm1" & info [ "b"; "bench" ] ~docv:"BM" ~doc)

let policy_arg =
  let doc = "Policy: baseline, h1, h2, h3 or thermal." in
  Arg.(value & opt string "thermal" & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let arch_arg =
  let doc = "Architecture: platform (4 identical PEs) or cosynth." in
  Arg.(value & opt string "platform" & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

let csv_arg =
  let doc = "Emit CSV instead of the formatted table." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let jobs_arg =
  let doc =
    "Size of the execution pool (domains) used for parallel sections — \
     table cells, GA fitness evaluation, SA restarts. Defaults to the \
     number of cores; results are identical at any value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Record a Chrome trace_event timeline of the run and write it to \
     $(docv) — load it in chrome://tracing or Perfetto. Spans cover \
     co-synthesis iterations, scheduler steps, thermal inquiry solves and \
     pool tasks; with the flag absent the instrumentation is disabled and \
     outputs are bit-identical."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write the process metrics registry — counters (inquiries and \
     their hits, scheduler steps, LU/CG solves), gauges and latency \
     histograms with p50/p95/p99 — to $(docv) as JSON."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("tats: " ^ msg);
      exit 2

(* Size the default pool; an out-of-range --jobs is a bad input, rejected
   before any pool exists. *)
let set_jobs = function
  | Some j when j < 1 || j > Core.Pool.max_jobs ->
      or_die
        (Error
           (Printf.sprintf "--jobs must be between 1 and %d, got %d"
              Core.Pool.max_jobs j))
  | Some j -> Core.Pool.set_default_jobs j
  | None -> ()

(* A leakage fixed point that does not settle, contradictory pins or
   isolation classes, and a constrained scan that finds no admissible PE
   are properties of the input design, not crashes: report them like any
   other bad input. *)
let exit_on_bad_design body =
  try body () with
  | Core.Steady.Runaway _ as e -> or_die (Error (Printexc.to_string e))
  | Core.Constraints.Invalid msg | Core.Constraints.Infeasible msg ->
      or_die (Error msg)

(* Bracket a subcommand body with trace recording and exporter writes.
   The exports run in a [Fun.protect] finalizer so a failing run still
   leaves whatever was recorded on disk. *)
let with_observability ~trace ~metrics f =
  (match trace with Some _ -> Core.Trace.start () | None -> ());
  let finish () =
    (match trace with
    | Some path ->
        Core.Trace.stop ();
        Core.Trace.export_chrome path;
        Format.eprintf "tats: wrote %d spans to %s@." (Core.Trace.span_count ())
          path
    | None -> ());
    match metrics with
    | Some path ->
        Core.Metricsreg.export path;
        Format.eprintf "tats: wrote metrics to %s@." path
    | None -> ()
  in
  Fun.protect ~finally:finish f

(* The --jobs/--trace/--metrics triple as one term. It yields the runner
   for a subcommand body: size the default pool, then run the body
   bracketed by [with_observability]. *)
let observed_arg : ((unit -> unit) -> unit) Term.t =
  let runner jobs trace metrics body =
    set_jobs jobs;
    exit_on_bad_design (fun () -> with_observability ~trace ~metrics body)
  in
  Term.(const runner $ jobs_arg $ trace_arg $ metrics_arg)

let parse_policy name =
  match Core.Policy.of_name name with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "unknown policy %S" name)

(* --- heterogeneous-platform arguments ------------------------------------ *)

(* "T:V" pairs for --pin/--pin-kind/--isolate. *)
let parse_pair ~flag ~rhs s =
  match String.split_on_char ':' s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> Ok (a, b)
      | _ -> Error (Printf.sprintf "--%s wants TASK:%s (two integers)" flag rhs))
  | _ -> Error (Printf.sprintf "--%s wants TASK:%s" flag rhs)

let parse_constraints ~pins ~pin_kinds ~isolate =
  let pair flag rhs s = or_die (parse_pair ~flag ~rhs s) in
  {
    Core.Constraints.pins =
      List.map
        (fun s ->
          let t, p = pair "pin" "PE" s in
          (t, Core.Constraints.To_pe p))
        pins
      @ List.map
          (fun s ->
            let t, k = pair "pin-kind" "KIND" s in
            (t, Core.Constraints.To_kind k))
          pin_kinds;
    isolation = List.map (pair "isolate" "CLASS") isolate;
  }

(* The fixed architecture a command runs on: the named builtin platform,
   or [n_pes] identical standard cores. *)
let resolve_platform ~n_pes = function
  | Some name -> or_die (Core.Catalog.platform_of_name name)
  | None ->
      if n_pes < 1 then or_die (Error "--n-pes must be at least 1");
      Core.Catalog.std_platform n_pes

let platform_arg =
  let doc =
    "Typed (possibly heterogeneous) builtin platform: std4, biglittle4 or \
     mixed6. Overrides the default 4-identical-PE platform; the library \
     gains one WCET/WCPC column per core kind. Platform architecture only."
  in
  Arg.(value & opt (some string) None
       & info [ "platform" ] ~docv:"NAME" ~doc)

let pin_arg =
  Arg.(value & opt_all string []
       & info [ "pin" ] ~docv:"TASK:PE"
           ~doc:"Pin a task to one PE slot (repeatable).")

let pin_kind_arg =
  Arg.(value & opt_all string []
       & info [ "pin-kind" ] ~docv:"TASK:KIND"
           ~doc:"Restrict a task to PEs of one core kind (repeatable).")

let isolate_arg =
  Arg.(value & opt_all string []
       & info [ "isolate" ] ~docv:"TASK:CLASS"
           ~doc:"Assign a task to a criticality class; distinct classes \
                 never share a PE (repeatable).")

(* --- table commands ----------------------------------------------------- *)

(* Every table command computes all three tables: they share cells, and
   the campaign builtins are their one definition. *)
let table_cmd name doc render =
  let run csv observed =
    observed @@ fun () -> print_string (render csv (Core.Experiments.tables ()))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ csv_arg $ observed_arg)

let table1_cmd =
  table_cmd "table1" "Regenerate Table 1 (power heuristics on both architectures)."
    (fun csv t ->
      let rows = t.Core.Experiments.table1 in
      if csv then Core.Report.table1_csv rows else Core.Report.table1 rows)

let table2_cmd =
  table_cmd "table2"
    "Regenerate Table 2 (power vs thermal, co-synthesis architecture)."
    (fun csv t ->
      let rows = t.Core.Experiments.table2 in
      if csv then Core.Report.versus_csv rows else Core.Report.table2 rows)

let table3_cmd =
  table_cmd "table3"
    "Regenerate Table 3 (power vs thermal, platform architecture)."
    (fun csv t ->
      let rows = t.Core.Experiments.table3 in
      if csv then Core.Report.versus_csv rows else Core.Report.table3 rows)

let checks_cmd =
  let run observed =
    (* [exit] bypasses [Fun.protect] finalizers, so the exporters must run
       before the exit-code decision. *)
    let ok = ref false in
    (observed @@ fun () ->
     let { Core.Experiments.table1; table2; table3 } = Core.Experiments.tables () in
     let checks = Core.Experiments.shape_checks ~table1 ~table2 ~table3 in
     print_string (Core.Report.shape_checks checks);
     ok := List.for_all (fun c -> c.Core.Experiments.holds) checks);
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "checks"
       ~doc:"Run every table and verify the reproduction's shape criteria.")
    Term.(const run $ observed_arg)

(* --- schedule ----------------------------------------------------------- *)

let schedule_cmd =
  let run bench policy arch platform pins pin_kinds isolate gantt stats svg
      floorplan_svg observed =
    observed @@ fun () ->
    let bench = or_die (Core.Benchmarks.index_of_name bench) in
    let policy = or_die (parse_policy policy) in
    let graph = Core.Benchmarks.load bench in
    let constraints = parse_constraints ~pins ~pin_kinds ~isolate in
    let outcome =
      match arch with
      | "platform" ->
          let platform = resolve_platform ~n_pes:4 platform in
          Core.Flow.run_platform ~platform ~constraints ~graph
            ~lib:(Core.Catalog.library_for platform) ~policy ()
      | "cosynth" ->
          if
            platform <> None || pins <> [] || pin_kinds <> [] || isolate <> []
          then
            or_die
              (Error
                 "--platform/--pin/--pin-kind/--isolate require --arch \
                  platform");
          Core.Flow.run_cosynthesis ~graph
            ~lib:(Core.Catalog.default_library ()) ~policy ()
      | other -> or_die (Error (Printf.sprintf "unknown architecture %S" other))
    in
    List.iter
      (fun (e : Core.Flow.log_entry) ->
        Format.printf "[%s] %s@." (Core.Flow.stage_name e.Core.Flow.stage)
          e.Core.Flow.detail)
      outcome.Core.Flow.log;
    Format.printf "%a@." Core.Metrics.pp_row outcome.Core.Flow.row;
    let report = outcome.Core.Flow.report in
    Array.iteri
      (fun pe t -> Format.printf "PE%d: %.2f W -> %.2f °C@." pe
          report.Core.Metrics.pe_powers.(pe) t)
      report.Core.Metrics.block_temps;
    if stats then begin
      Format.printf "inquiry engine: %a@." Core.Inquiry.pp_stats
        outcome.Core.Flow.inquiry;
      let count name = Core.Metricsreg.(counter_value (counter name)) in
      Format.printf
        "list scheduler: %d steps, %d candidates scanned, %d replayed from the \
         prefix memo@."
        (count "sched.steps") (count "sched.candidates")
        (count "sched.replayed_steps");
      print_string (Core.Report.pool_stats (Core.Pool.stats (Core.Pool.default ())))
    end;
    if gantt then Format.printf "%a@." Core.Schedule.pp outcome.Core.Flow.schedule;
    (match svg with
    | Some path ->
        Core.Visuals.save (Core.Visuals.gantt outcome.Core.Flow.schedule) ~path;
        Format.printf "wrote Gantt chart to %s@." path
    | None -> ());
    match floorplan_svg with
    | Some path ->
        Core.Visuals.save
          (Core.Visuals.floorplan
             ~temps:outcome.Core.Flow.report.Core.Metrics.block_temps
             outcome.Core.Flow.placement)
          ~path;
        Format.printf "wrote thermal floorplan to %s@." path
    | None -> ()
  in
  let gantt_arg =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Also print the per-PE schedule.")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the thermal inquiry-engine statistics (inquiries, \
                   cache hits, fixed-point iterations, solves, wall time) and \
                   the list scheduler's step and replayed-step counts.")
  in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write a Gantt chart SVG.")
  in
  let fp_svg_arg =
    Arg.(value & opt (some string) None
         & info [ "floorplan-svg" ] ~docv:"FILE"
             ~doc:"Write the temperature-annotated floorplan SVG.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Run one benchmark/policy/architecture combination.")
    Term.(const run $ bench_arg $ policy_arg $ arch_arg $ platform_arg
          $ pin_arg $ pin_kind_arg $ isolate_arg $ gantt_arg $ stats_arg
          $ svg_arg $ fp_svg_arg $ observed_arg)

(* --- thermal ------------------------------------------------------------ *)

let thermal_cmd =
  let run n_pes powers grid svg =
    if n_pes < 1 then or_die (Error "--pes must be at least 1");
    if not (List.for_all Float.is_finite powers) then
      or_die (Error "--power must be a finite number");
    let power =
      match powers with
      | [] -> Array.make n_pes 4.0
      | l ->
          if List.length l <> n_pes then
            or_die (Error "need exactly one --power per PE")
          else Array.of_list l
    in
    let blocks =
      Array.init n_pes (fun i ->
          Core.Block.make ~name:(Printf.sprintf "PE%d" i) ~area:1.6e-5 ())
    in
    let placement = Core.Grid.layout blocks in
    let hotspot = Core.Hotspot.create placement in
    let temps = Core.Hotspot.query hotspot ~power in
    Format.printf "steady-state block temperatures (°C):@.";
    Array.iteri (fun i t -> Format.printf "  PE%d: %6.2f W -> %7.2f °C@." i power.(i) t) temps;
    Format.printf "peak %.2f, average %.2f@."
      (Core.Stats.max temps) (Core.Stats.mean temps);
    if grid then begin
      let gm = Core.Gridmodel.build ~nx:24 ~ny:24 Core.Package.default placement in
      let cells = Core.Gridmodel.cell_temperatures gm ~power in
      let lo = Core.Stats.min (Array.concat (Array.to_list cells)) in
      let hi = Core.Gridmodel.max_cell_temperature gm ~power in
      Format.printf "@.grid-mode heat map (%.1f..%.1f °C):@." lo hi;
      let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |] in
      Array.iter
        (fun row ->
          Array.iter
            (fun t ->
              let f = (t -. lo) /. Float.max (hi -. lo) 1e-9 in
              let k = Stdlib.min 9 (int_of_float (f *. 10.0)) in
              print_char shades.(k))
            row;
          print_newline ())
        cells
    end;
    match svg with
    | Some path ->
        let gm = Core.Gridmodel.build ~nx:24 ~ny:24 Core.Package.default placement in
        Core.Visuals.save (Core.Visuals.heat_map gm ~power) ~path;
        Format.printf "wrote heat map to %s@." path
    | None -> ()
  in
  let n_arg =
    Arg.(value & opt int 4 & info [ "n"; "pes" ] ~docv:"N" ~doc:"Number of PE blocks.")
  in
  let power_arg =
    Arg.(value & opt_all float [] & info [ "power" ] ~docv:"W" ~doc:"Per-PE power (repeat).")
  in
  let grid_arg =
    Arg.(value & flag & info [ "grid" ] ~doc:"Also render the grid-mode heat map.")
  in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write a heat-map SVG (24x24 grid).")
  in
  Cmd.v
    (Cmd.info "thermal" ~doc:"Query the HotSpot-style thermal model directly.")
    Term.(const run $ n_arg $ power_arg $ grid_arg $ svg_arg)

(* --- floorplan ---------------------------------------------------------- *)

let floorplan_cmd =
  let run n seed svg observed =
    if n < 1 then or_die (Error "--blocks must be at least 1");
    observed @@ fun () ->
    let rng = Core.Rng.create seed in
    let blocks =
      Array.init n (fun i ->
          Core.Block.make ~name:(Printf.sprintf "b%d" i)
            ~area:(Core.Rng.uniform rng 4e-6 2.5e-5)
            ())
    in
    let blocks_area = Array.fold_left (fun a b -> a +. b.Core.Block.area) 0.0 blocks in
    let result =
      Core.Ga.run ~seed ~blocks
        ~cost:(Core.Flow.floorplan_cost ~blocks_area)
        ()
    in
    Format.printf "best cost %.4f after %d generations@." result.Core.Ga.best_cost
      (Array.length result.Core.Ga.history);
    Format.printf "%a@." Core.Placement.pp result.Core.Ga.best_placement;
    Format.printf "dead space: %.1f%%@."
      (100.0 *. Core.Placement.dead_space_ratio result.Core.Ga.best_placement);
    match svg with
    | Some path ->
        Core.Visuals.save (Core.Visuals.floorplan result.Core.Ga.best_placement) ~path;
        Format.printf "wrote floorplan to %s@." path
    | None -> ()
  in
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE" ~doc:"Write the floorplan SVG.")
  in
  let n_arg =
    Arg.(value & opt int 6 & info [ "n"; "blocks" ] ~docv:"N" ~doc:"Number of blocks.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"GA random seed.")
  in
  Cmd.v
    (Cmd.info "floorplan" ~doc:"Run the GA floorplanner on random blocks.")
    Term.(const run $ n_arg $ seed_arg $ svg_arg $ observed_arg)

(* --- compare ------------------------------------------------------------ *)

let compare_cmd =
  let run bench restarts observed =
    observed @@ fun () ->
    let bench = or_die (Core.Benchmarks.index_of_name bench) in
    if restarts < 1 then or_die (Error "--restarts must be >= 1");
    let graph = Core.Benchmarks.load bench in
    let lib = Core.Catalog.platform_library () in
    let pes = Core.Catalog.platform_instances 4 in
    let asp = Core.List_sched.run ~graph ~lib ~pes ~policy:Core.Policy.Baseline () in
    let heft = Core.Heft.run ~graph ~lib ~pes () in
    let sa_label, sa_makespan =
      if restarts = 1 then
        let sa =
          Core.Sa_mapper.run ~seed:1 ~objective:Core.Sa_mapper.Makespan ~graph
            ~lib ~pes ()
        in
        ("SA mapper", sa.Core.Sa_mapper.schedule.Core.Schedule.makespan)
      else begin
        let r =
          Core.Sa_mapper.run_restarts ~restarts ~seed:1
            ~objective:Core.Sa_mapper.Makespan ~graph ~lib ~pes ()
        in
        Format.printf "SA restart costs:";
        Array.iteri
          (fun i c ->
            Format.printf " %s%.1f%s"
              (if i = r.Core.Sa_mapper.best_restart then "[" else "")
              c
              (if i = r.Core.Sa_mapper.best_restart then "]" else ""))
          r.Core.Sa_mapper.restart_costs;
        Format.printf "@.";
        ( Printf.sprintf "SA mapper (%dx)" restarts,
          r.Core.Sa_mapper.best.Core.Sa_mapper.schedule.Core.Schedule.makespan )
      end
    in
    Format.printf "%-22s %12s@." "scheduler" "makespan";
    Format.printf "%-22s %12.1f@." "ASP (list, baseline)" asp.Core.Schedule.makespan;
    Format.printf "%-22s %12.1f@." "HEFT (insertion)" heft.Core.Schedule.makespan;
    Format.printf "%-22s %12.1f@." sa_label sa_makespan;
    Format.printf "%-22s %12.0f@." "deadline" (Core.Graph.deadline graph)
  in
  let restarts_arg =
    Arg.(value & opt int 1
         & info [ "restarts" ] ~docv:"R"
             ~doc:"Independent SA chains (derived seeds, best kept). 1 \
                   reproduces the single-chain behaviour exactly.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare the ASP against HEFT and the SA mapper.")
    Term.(const run $ bench_arg $ restarts_arg $ observed_arg)

(* --- dvs ---------------------------------------------------------------- *)

let dvs_cmd =
  let run bench policy =
    exit_on_bad_design @@ fun () ->
    let bench = or_die (Core.Benchmarks.index_of_name bench) in
    let policy = or_die (parse_policy policy) in
    let graph = Core.Benchmarks.load bench in
    let lib = Core.Catalog.platform_library () in
    let o = Core.Flow.run_platform ~graph ~lib ~policy () in
    let plan = Core.Dvs.reclaim ~lib o.Core.Flow.schedule in
    let after = Core.Dvs.thermal_report plan ~hotspot:o.Core.Flow.hotspot in
    Format.printf "policy %s on %s:@." (Core.Policy.name policy) (Core.Graph.name graph);
    Format.printf "  energy: %.1f J -> %.1f J (%.1f%% saved)@."
      (Core.Metrics.total_task_energy o.Core.Flow.schedule)
      (Core.Dvs.total_energy plan)
      (100.0 *. Core.Dvs.energy_saving_ratio plan);
    Format.printf "  peak temperature: %.2f °C -> %.2f °C@."
      o.Core.Flow.row.Core.Metrics.max_temp after.Core.Metrics.max_temp;
    Format.printf "  makespan: %.1f -> %.1f (deadline %.0f)@."
      o.Core.Flow.schedule.Core.Schedule.makespan plan.Core.Dvs.makespan
      (Core.Graph.deadline graph);
    match Core.Dvs.validate plan ~lib with
    | [] -> Format.printf "  plan: safe@."
    | violations -> Format.printf "  plan: %d violations (bug)@." (List.length violations)
  in
  Cmd.v
    (Cmd.info "dvs" ~doc:"Apply DVS slack reclamation on top of a platform schedule.")
    Term.(const run $ bench_arg $ policy_arg)

(* --- pareto ------------------------------------------------------------- *)

let pareto_cmd =
  let run bench =
    exit_on_bad_design @@ fun () ->
    let bench = or_die (Core.Benchmarks.index_of_name bench) in
    let graph = Core.Benchmarks.load bench in
    let lib = Core.Catalog.default_library () in
    let points = Core.Pareto.explore ~graph ~lib () in
    Format.printf "all design points:@.%a@." Core.Pareto.pp_points points;
    Format.printf "Pareto frontier (cost vs peak temperature):@.%a@."
      Core.Pareto.pp_points (Core.Pareto.frontier points)
  in
  Cmd.v
    (Cmd.info "pareto"
       ~doc:"Explore the cost/temperature design space via repeated co-synthesis.")
    Term.(const run $ bench_arg)

(* --- analyze ------------------------------------------------------------ *)

let analyze_cmd =
  let run bench =
    let bench = or_die (Core.Benchmarks.index_of_name bench) in
    let graph = Core.Benchmarks.load bench in
    Format.printf "%s:@.%a@." (Core.Graph.name graph) Core.Analysis.pp
      (Core.Analysis.analyze graph)
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Structural statistics of a benchmark task graph.")
    Term.(const run $ bench_arg)

(* --- dtm ---------------------------------------------------------------- *)

let dtm_cmd' =
  let run bench trigger passes =
    let bench = or_die (Core.Benchmarks.index_of_name bench) in
    if passes < 1 then or_die (Error "--passes must be at least 1");
    if not (Float.is_finite trigger) then or_die (Error "--trigger must be a number");
    let graph = Core.Benchmarks.load bench in
    let lib = Core.Catalog.platform_library () in
    Format.printf "%-10s %10s %12s %12s %10s %10s@." "policy" "static" "simulated"
      "throttled" "peak °C" "deadline";
    List.iter
      (fun policy ->
        let o = Core.Flow.run_platform ~graph ~lib ~policy () in
        let params = { Core.Dtm.default_params with Core.Dtm.trigger; passes } in
        let r =
          Core.Dtm.simulate ~params ~lib ~hotspot:o.Core.Flow.hotspot
            o.Core.Flow.schedule
        in
        Format.printf "%-10s %10.1f %12.1f %11.1f%% %10.2f %10s@."
          (Core.Policy.name policy)
          o.Core.Flow.schedule.Core.Schedule.makespan r.Core.Dtm.makespan
          (100.0 *. r.Core.Dtm.throttled_fraction)
          r.Core.Dtm.peak_temperature
          (if r.Core.Dtm.meets_deadline then "met" else "MISSED"))
      Core.Policy.all
  in
  let trigger_arg =
    Arg.(value & opt float 90.0
         & info [ "trigger" ] ~docv:"C" ~doc:"Throttle threshold, °C.")
  in
  let passes_arg =
    Arg.(value & opt int 150
         & info [ "passes" ] ~docv:"N" ~doc:"Warm-up executions of the schedule.")
  in
  Cmd.v
    (Cmd.info "dtm-sim"
       ~doc:"Simulate runtime dynamic thermal management over each policy.")
    Term.(const run $ bench_arg $ trigger_arg $ passes_arg)

(* --- transient ----------------------------------------------------------- *)

let transient_cmd =
  let run bench policy arch periods dt time_unit exact csv observed =
    observed @@ fun () ->
    let bench = or_die (Core.Benchmarks.index_of_name bench) in
    let policy = or_die (parse_policy policy) in
    if periods < 2 then or_die (Error "--periods must be >= 2");
    if not (Float.is_finite time_unit && time_unit > 0.0) then
      or_die (Error "--time-unit must be a positive number");
    (match dt with
    | Some d when not (Float.is_finite d && d > 0.0) ->
        or_die (Error "--dt must be a positive number")
    | _ -> ());
    let graph = Core.Benchmarks.load bench in
    let lib, outcome =
      match arch with
      | "platform" ->
          let lib = Core.Catalog.platform_library () in
          (lib, Core.Flow.run_platform ~graph ~lib ~policy ())
      | "cosynth" ->
          let lib = Core.Catalog.default_library () in
          (lib, Core.Flow.run_cosynthesis ~graph ~lib ~policy ())
      | other -> or_die (Error (Printf.sprintf "unknown architecture %S" other))
    in
    let s = outcome.Core.Flow.schedule in
    let hotspot = outcome.Core.Flow.hotspot in
    let profile = Core.Replay.of_schedule ~time_unit ~lib s in
    let model = Core.Hotspot.model hotspot in
    let engine = Core.Transient.create (Core.Transient.of_model model) in
    let dt =
      match dt with
      | Some d -> d
      | None -> Core.Transient.profile_duration profile /. 100.0
    in
    let r =
      Core.Transient.replay ~record:true ~exact engine ~profile
        ~t0:(Core.Transient.initial_ambient model)
        ~dt ~periods
    in
    Format.printf
      "%s / %s / %s: replaying %d periods of %.4f s (%d power segments, dt = \
       %g s, %d steps, %s path)@.@."
      (Core.Graph.name graph) (Core.Policy.name policy) arch periods
      (Core.Transient.profile_duration profile)
      (Core.Transient.profile_segments profile)
      dt r.Core.Transient.steps
      (if exact then "exact factored-solve" else "propagator");
    let steady = outcome.Core.Flow.report in
    Format.printf "per-PE temperatures (°C):@.";
    Format.printf "  PE   steady(avg power)   transient peak   ripple@.";
    Array.iteri
      (fun pe st ->
        let p = r.Core.Transient.last_period_peak.(pe) in
        Format.printf "  %d        %8.2f        %8.2f      %+6.2f@." pe st p (p -. st))
      steady.Core.Metrics.block_temps;
    (match r.Core.Transient.trace with
    | Some tr -> (
        match
          Core.Transient.settle_time tr ~steady:r.Core.Transient.final ~tol:2.0
        with
        | Some t ->
            Format.printf "@.transient settles (within 2 °C of its endpoint) by \
                           t = %.2f s@." t
        | None -> Format.printf "@.trace did not settle@.")
    | None -> ());
    Format.printf "@.engine: %a@." Core.Transient.pp_stats
      (Core.Transient.stats engine);
    match (csv, r.Core.Transient.trace) with
    | Some path, Some tr ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            let n = Core.Schedule.n_pes s in
            output_string oc "time_s";
            for pe = 0 to n - 1 do
              Printf.fprintf oc ",pe%d_C" pe
            done;
            output_string oc ",spreader_C,sink_C\n";
            Array.iteri
              (fun k t ->
                Printf.fprintf oc "%.9g" t;
                Array.iter
                  (fun temp -> Printf.fprintf oc ",%.6f" temp)
                  tr.Core.Transient.temps.(k);
                output_char oc '\n')
              tr.Core.Transient.times);
        Format.printf "wrote temperature trace to %s@." path
    | _ -> ()
  in
  let periods_arg =
    Arg.(value & opt int 300
         & info [ "periods" ] ~docv:"N"
             ~doc:"Schedule repetitions to replay (warm-up included).")
  in
  let dt_arg =
    Arg.(value & opt (some float) None
         & info [ "dt" ] ~docv:"SEC"
             ~doc:"Integration step in seconds (default: period / 100).")
  in
  let time_unit_arg =
    Arg.(value & opt float 1e-3
         & info [ "time-unit" ] ~docv:"SEC"
             ~doc:"Seconds of wall clock per schedule time unit.")
  in
  let exact_arg =
    Arg.(value & flag
         & info [ "exact" ]
             ~doc:"Use the bit-exact factored-solve stepper instead of the \
                   precomputed-propagator fast path.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE"
             ~doc:"Export the temperature trace (time + per-node °C) as CSV.")
  in
  Cmd.v
    (Cmd.info "transient"
       ~doc:"Replay a schedule's exact power breakpoints through the \
             event-driven transient engine and compare against the \
             steady-state estimate.")
    Term.(const run $ bench_arg $ policy_arg $ arch_arg $ periods_arg $ dt_arg
          $ time_unit_arg $ exact_arg $ csv_arg $ observed_arg)

(* --- online --------------------------------------------------------------- *)

let online_cmd =
  let run bench policy arrivals seed mean_gap n_pes platform pins pin_kinds
      isolate trigger observed =
    observed @@ fun () ->
    let bench = or_die (Core.Benchmarks.index_of_name bench) in
    (match trigger with
    | Some t when not (Float.is_finite t && t > 0.0) ->
        or_die (Error "--trigger must be a positive number")
    | _ -> ());
    let policy =
      match Core.Online.policy_of_name policy with
      | Some (Core.Online.Reactive r) ->
          Core.Online.Reactive
            (match trigger with
            | Some t -> { r with Core.Online.trigger = t }
            | None -> r)
      | Some p -> p
      | None ->
          or_die
            (Error
               (Printf.sprintf
                  "unknown online policy %S (want baseline, h1, h2, h3, \
                   thermal or reactive)"
                  policy))
    in
    let arrivals =
      match arrivals with
      | "zero" -> Core.Flow.Release_zero
      | "sporadic" -> Core.Flow.Release_sporadic seed
      | "trace" -> Core.Flow.Release_trace
      | other ->
          or_die
            (Error
               (Printf.sprintf
                  "unknown arrival source %S (want zero, sporadic or trace)"
                  other))
    in
    if not (Float.is_finite mean_gap && mean_gap > 0.0) then
      or_die (Error "--mean-gap must be a positive number");
    if seed < 0 then or_die (Error "--seed must be non-negative");
    let graph = Core.Benchmarks.load bench in
    let constraints = parse_constraints ~pins ~pin_kinds ~isolate in
    let arch = resolve_platform ~n_pes platform in
    let o =
      Core.Flow.run_online ~platform:arch ~constraints ~mean_gap ~arrivals
        ~graph ~lib:(Core.Catalog.library_for arch) ~policy ()
    in
    let stats = o.Core.Flow.online.Core.Online.stats in
    Format.printf "%s / %a / %s arrivals%s on %d PEs%s@."
      (Core.Graph.name graph) Core.Online.pp_policy policy
      (Core.Flow.arrival_source_name arrivals)
      (match arrivals with
      | Core.Flow.Release_sporadic s ->
          Printf.sprintf " (seed %d, mean gap %g)" s mean_gap
      | Core.Flow.Release_zero | Core.Flow.Release_trace -> "")
      (Core.Platform.n_pes arch)
      (match platform with
      | None -> ""
      | Some name -> Printf.sprintf " (platform %s)" name);
    Format.printf
      "event loop: %d events, %d decisions, %d candidates evaluated, %d \
       cooldown deferrals@."
      stats.Core.Online.events stats.Core.Online.decisions
      stats.Core.Online.candidates stats.Core.Online.deferrals;
    if Float.is_finite stats.Core.Online.peak_observed then
      Format.printf "live transient peak at decision points: %.2f °C@."
        stats.Core.Online.peak_observed;
    Format.printf "@.%a@." Core.Online.pp_score o.Core.Flow.score
  in
  let arrivals_arg =
    Arg.(value & opt string "sporadic"
         & info [ "arrivals" ] ~docv:"SRC"
             ~doc:"Arrival stream: zero (everything releases at t=0), \
                   sporadic (seeded random gaps along the precedence order) \
                   or trace (the offline baseline schedule's start times).")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"Seed for the sporadic arrival stream (Rng.derive per \
                   task).")
  in
  let mean_gap_arg =
    Arg.(value & opt float 25.0
         & info [ "mean-gap" ] ~docv:"T"
             ~doc:"Mean release gap of the sporadic stream, in schedule time \
                   units.")
  in
  let n_pes_arg =
    Arg.(value & opt int 4
         & info [ "n-pes" ] ~docv:"N" ~doc:"Platform width.")
  in
  let trigger_arg =
    Arg.(value & opt (some float) None
         & info [ "trigger" ] ~docv:"C"
             ~doc:"Hot-PE trigger temperature (°C) for the reactive policy \
                   (default 75).")
  in
  let policy_arg =
    let doc = "Policy: baseline, h1, h2, h3, thermal or reactive." in
    Arg.(value & opt string "thermal"
         & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)
  in
  Cmd.v
    (Cmd.info "online"
       ~doc:"Run the online reactive scheduler over a task-arrival stream \
             and score it against the clairvoyant offline baseline \
             (empirical competitive ratios on makespan and peak \
             temperature).")
    Term.(const run $ bench_arg $ policy_arg $ arrivals_arg $ seed_arg
          $ mean_gap_arg $ n_pes_arg $ platform_arg $ pin_arg $ pin_kind_arg
          $ isolate_arg $ trigger_arg $ observed_arg)

(* --- campaign ------------------------------------------------------------- *)

let campaign_cmd =
  let run mode spec_name spec_file dir shard baseline tol_makespan
      tol_power tol_max_temp tol_avg_temp observed =
    observed @@ fun () ->
    let spec =
      match spec_file with
      | Some path -> (
          match Core.Fsio.read_file path with
          | None -> or_die (Error (Printf.sprintf "cannot read spec file %s" path))
          | Some text ->
              or_die
                (Result.map_error
                   (fun e -> Printf.sprintf "spec file %s: %s" path e)
                   (Core.Campaign.spec_of_string text)))
      | None -> (
          match Core.Campaign.builtin spec_name with
          | Some s -> s
          | None ->
              or_die
                (Error
                   (Printf.sprintf "unknown builtin spec %S (want one of %s)"
                      spec_name
                      (String.concat ", " Core.Campaign.builtin_names))))
    in
    let dir =
      match dir with Some d -> d | None -> "campaign-" ^ spec.Core.Campaign.name
    in
    match mode with
    | "run" | "resume" ->
        (* resume IS run: valid artifacts are skipped, the rest computed. *)
        let shard, shards =
          match shard with
          | None -> (0, 1)
          | Some s -> (
              match String.split_on_char '/' s with
              | [ k; n ] -> (
                  match (int_of_string_opt k, int_of_string_opt n) with
                  | Some k, Some n when n >= 1 && k >= 0 && k < n -> (k, n)
                  | _ -> or_die (Error "--shard wants K/N with 0 <= K < N"))
              | _ -> or_die (Error "--shard wants K/N with 0 <= K < N"))
        in
        let r =
          Core.Campaign.run ~pool:(Core.Pool.default ()) ~shards ~shard ~dir
            spec
        in
        Format.printf
          "campaign %s: %d cells, shard %d/%d -> %d (%d computed, %d reused, \
           %d invalid re-run)@."
          spec.Core.Campaign.name r.Core.Campaign.total shard shards
          r.Core.Campaign.shard_cells r.Core.Campaign.computed
          r.Core.Campaign.reused r.Core.Campaign.invalid;
        if r.Core.Campaign.manifest_written then
          Format.printf "manifest: %s@." (Core.Campaign.manifest_path dir)
        else
          Format.printf
            "campaign incomplete — no manifest yet (other shards pending?)@."
    | "report" ->
        let m = or_die (Core.Campaign.load_manifest ~dir) in
        print_string (Core.Report.campaign_summary (Core.Campaign.summarize m))
    | "gate" ->
        let baseline_path =
          match baseline with
          | Some p -> p
          | None -> or_die (Error "gate needs --baseline MANIFEST")
        in
        let baseline =
          match Core.Fsio.read_file baseline_path with
          | None ->
              or_die
                (Error (Printf.sprintf "cannot read baseline %s" baseline_path))
          | Some text ->
              or_die
                (Result.map_error
                   (fun e -> Printf.sprintf "baseline %s: %s" baseline_path e)
                   (Core.Campaign.manifest_of_string text))
        in
        let candidate = or_die (Core.Campaign.load_manifest ~dir) in
        let tol =
          {
            Core.Campaign.tol_makespan;
            tol_power;
            tol_max_temp;
            tol_avg_temp;
          }
        in
        let g = Core.Campaign.gate ~tol ~baseline ~candidate in
        print_string (Core.Report.campaign_gate g);
        if not (Core.Campaign.gate_passes g) then exit 2
    | other ->
        or_die
          (Error
             (Printf.sprintf "unknown mode %S (want run, resume, report or gate)"
                other))
  in
  let mode_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODE"
          ~doc:
            "$(b,run) executes the campaign's missing cells; $(b,resume) is \
             the same operation, named for intent; $(b,report) renders the \
             manifest; $(b,gate) diffs the manifest against a baseline and \
             exits 2 on regression.")
  in
  let spec_arg =
    Arg.(
      value & opt string "golden"
      & info [ "s"; "spec" ] ~docv:"NAME"
          ~doc:
            "Builtin campaign spec: table1, table2, table3 (the paper's \
             tables as campaigns), golden (the pinned demo), hetero (the \
             heterogeneous-platform gate fixture) or sweep1k (1080 \
             generated cells).")
  in
  let spec_file_arg =
    Arg.(
      value & opt (some string) None
      & info [ "spec-file" ] ~docv:"FILE"
          ~doc:
            "Read the campaign spec from a JSON file instead of --spec (see \
             README for the format).")
  in
  let dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:
            "Artifact directory (cells/<id>.json plus manifest.json); \
             defaults to campaign-<spec name>.")
  in
  let shard_arg =
    Arg.(
      value & opt (some string) None
      & info [ "shard" ] ~docv:"K/N"
          ~doc:
            "Run only cells with expansion index = K mod N; N cooperating \
             shards sharing DIR cover the campaign, and the last one to \
             finish writes the manifest.")
  in
  let baseline_arg =
    Arg.(
      value & opt (some string) None
      & info [ "baseline" ] ~docv:"MANIFEST"
          ~doc:"Baseline manifest.json to gate against.")
  in
  let tol name doc =
    Arg.(value & opt float 0.0 & info [ name ] ~docv:"D" ~doc)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Sharded, resumable (graph x policy x platform) sweep campaigns \
          with content-addressed JSON artifacts and regression gating.")
    Term.(
      const run $ mode_arg $ spec_arg $ spec_file_arg $ dir_arg $ shard_arg
      $ baseline_arg
      $ tol "tol-makespan" "Allowed makespan increase before gate failure."
      $ tol "tol-power" "Allowed total-power increase (W) before gate failure."
      $ tol "tol-max-temp" "Allowed peak-temperature increase (°C) before gate failure."
      $ tol "tol-avg-temp" "Allowed average-temperature increase (°C) before gate failure."
      $ observed_arg)

(* --- robustness ----------------------------------------------------------- *)

let robustness_cmd =
  let run n tasks seed =
    exit_on_bad_design @@ fun () ->
    if n < 1 then or_die (Error "-n must be at least 1");
    if tasks < 2 then or_die (Error "--tasks must be at least 2");
    let r = Core.Experiments.robustness ~n ~tasks ~seed () in
    Format.printf
      "random graphs: %d (x%d tasks)@.thermal beats power-aware on max temp: \
       %d/%d; on avg temp: %d/%d@.mean reduction: %.2f °C max / %.2f °C avg@."
      r.Core.Experiments.n_graphs tasks r.Core.Experiments.wins_max
      r.Core.Experiments.n_graphs r.Core.Experiments.wins_avg
      r.Core.Experiments.n_graphs
      r.Core.Experiments.mean_reduction.Core.Experiments.d_max_temp
      r.Core.Experiments.mean_reduction.Core.Experiments.d_avg_temp
  in
  let n_arg =
    Arg.(value & opt int 12 & info [ "n" ] ~docv:"N" ~doc:"Number of random graphs.")
  in
  let tasks_arg =
    Arg.(value & opt int 30 & info [ "tasks" ] ~docv:"T" ~doc:"Tasks per graph.")
  in
  let seed_arg =
    Arg.(value & opt int 2005 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:"Compare thermal vs power-aware on fresh random workloads.")
    Term.(const run $ n_arg $ tasks_arg $ seed_arg)

(* --- artifacts ------------------------------------------------------------ *)

let artifacts_cmd =
  let run dir jobs =
    exit_on_bad_design @@ fun () ->
    set_jobs jobs;
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let write name contents =
      let path = Filename.concat dir name in
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc contents);
      Format.printf "wrote %s@." path
    in
    let t = Core.Experiments.tables () in
    let { Core.Experiments.table1; table2; table3 } = t in
    write "tables.txt" (Core.Report.tables t);
    write "table1.csv" (Core.Report.table1_csv table1);
    write "table2.csv" (Core.Report.versus_csv table2);
    write "table3.csv" (Core.Report.versus_csv table3);
    write "table1.md" (Core.Report.table1_markdown table1);
    write "table2.md"
      (Core.Report.versus_markdown
         ~title:"Table 2 — power vs thermal, co-synthesis architecture"
         ~paper:Core.Paper_data.table2 table2);
    write "table3.md"
      (Core.Report.versus_markdown
         ~title:"Table 3 — power vs thermal, platform architecture"
         ~paper:Core.Paper_data.table3 table3);
    (* One SVG set per benchmark: thermal-aware platform run. *)
    let lib = Core.Catalog.platform_library () in
    List.iter
      (fun bench ->
        let graph = Core.Benchmarks.load bench in
        let name = Core.Graph.name graph in
        let o = Core.Flow.run_platform ~graph ~lib ~policy:Core.Policy.Thermal_aware () in
        write
          (Printf.sprintf "%s_gantt.svg" name)
          (Core.Visuals.gantt o.Core.Flow.schedule);
        write
          (Printf.sprintf "%s_floorplan.svg" name)
          (Core.Visuals.floorplan
             ~temps:o.Core.Flow.report.Core.Metrics.block_temps
             o.Core.Flow.placement);
        write (Printf.sprintf "%s.dot" name) (Core.Dot.to_dot graph);
        write (Printf.sprintf "%s.tgff" name) (Core.Tgff_io.to_string graph))
      [ 0; 1; 2; 3 ]
  in
  let dir_arg =
    Arg.(value & opt string "artifacts"
         & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "artifacts"
       ~doc:"Regenerate the full experiment artifact set (tables, CSV, \
             markdown, SVG, DOT, TGFF) into a directory.")
    Term.(const run $ dir_arg $ jobs_arg)

(* --- client ------------------------------------------------------------- *)

let client_cmd =
  let module Serve = Core.Serve in
  let parse_floats field s =
    try Ok (Array.of_list (List.map float_of_string (String.split_on_char ',' s)))
    with Failure _ ->
      Error (Printf.sprintf "--%s wants comma-separated numbers" field)
  in
  let run socket kind json bench policy arch n_pes platform pins pin_kinds
      isolate power idle periods dt time_unit exact deadline_ms =
    let reply =
      match
        Serve.Client.with_client socket @@ fun c ->
        match json with
      | Some raw -> Serve.Client.call c (or_die (Serve.Json.of_string raw))
      | None ->
          let open Serve.Protocol in
          let sched () =
            let bench = or_die (Core.Benchmarks.index_of_name bench) in
            let policy = or_die (parse_policy policy) in
            let arch =
              match arch with
              | "platform" -> Platform
              | "cosynth" -> Cosynth
              | other ->
                  or_die
                    (Error (Printf.sprintf "unknown architecture %S" other))
            in
            let spec = parse_constraints ~pins ~pin_kinds ~isolate in
            {
              bench;
              policy;
              arch;
              n_pes;
              platform;
              pins = spec.Core.Constraints.pins;
              isolation = spec.Core.Constraints.isolation;
            }
          in
          let kind =
            match kind with
            | "ping" -> Ping
            | "stats" -> Stats
            | "shutdown" -> Shutdown
            | "schedule" -> Schedule (sched ())
            | "transient" ->
                Transient { sched = sched (); periods; dt; time_unit; exact }
            | "inquiry" ->
                let power =
                  match power with
                  | Some s -> or_die (parse_floats "power" s)
                  | None -> or_die (Error "inquiry requires --power W,W,...")
                in
                let n = Array.length power in
                let idle =
                  match idle with
                  | Some s -> or_die (parse_floats "idle" s)
                  | None -> Array.make n 0.0
                in
                if Array.length idle <> n then
                  or_die (Error "--idle must match --power in length");
                Inquiry { n_pes = n; power; idle }
            | other ->
                or_die (Error (Printf.sprintf "unknown request kind %S" other))
          in
          Serve.Client.request c (request ?deadline_ms kind)
      with
      | r -> r
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot connect to %s: %s" socket
               (Unix.error_message e))
    in
    match reply with
    | Ok v ->
        print_endline (Serve.Json.to_string v);
        if not (Serve.Protocol.reply_ok v) then exit 1
    | Error msg -> or_die (Error msg)
  in
  let socket_arg =
    Arg.(value & opt string "tatsd.sock"
         & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"The tatsd socket.")
  in
  let kind_arg =
    let doc =
      "Request kind: ping, stats, schedule, inquiry, transient or shutdown."
    in
    Arg.(value & pos 0 string "ping" & info [] ~docv:"KIND" ~doc)
  in
  let json_arg =
    let doc =
      "Send $(docv) verbatim as the request (overrides every other flag) — \
       the escape hatch for hand-written requests."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"JSON" ~doc)
  in
  let n_pes_arg =
    Arg.(value & opt int 4
         & info [ "n-pes" ] ~docv:"N" ~doc:"Platform width for schedule/transient.")
  in
  let power_arg =
    Arg.(value & opt (some string) None
         & info [ "power" ] ~docv:"W,W,..."
             ~doc:"Per-PE dynamic power for an inquiry request.")
  in
  let idle_arg =
    Arg.(value & opt (some string) None
         & info [ "idle" ] ~docv:"W,W,..."
             ~doc:"Per-PE idle power for an inquiry request (default zeros).")
  in
  let periods_arg =
    Arg.(value & opt int 50
         & info [ "periods" ] ~docv:"N" ~doc:"Transient: schedule repetitions.")
  in
  let dt_arg =
    Arg.(value & opt (some float) None
         & info [ "dt" ] ~docv:"SECONDS"
             ~doc:"Transient: integration step (default period/100).")
  in
  let time_unit_arg =
    Arg.(value & opt float 1e-3
         & info [ "time-unit" ] ~docv:"SECONDS"
             ~doc:"Transient: seconds per schedule time unit.")
  in
  let exact_arg =
    Arg.(value & flag
         & info [ "exact" ] ~doc:"Transient: bit-exact factored-solve stepper.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Queueing budget: the server answers `deadline' instead of \
                   executing a request it could only dispatch later than this.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running tatsd and print the JSON reply. \
             Exits 1 when the server answers with an error reply.")
    Term.(
      const run $ socket_arg $ kind_arg $ json_arg $ bench_arg $ policy_arg
      $ arch_arg $ n_pes_arg $ platform_arg $ pin_arg $ pin_kind_arg
      $ isolate_arg $ power_arg $ idle_arg $ periods_arg $ dt_arg
      $ time_unit_arg $ exact_arg $ deadline_arg)

(* --- export ------------------------------------------------------------- *)

let export_cmd =
  let run bench path =
    let bench = or_die (Core.Benchmarks.index_of_name bench) in
    let graph = Core.Benchmarks.load bench in
    Core.Dot.save graph path;
    Format.printf "wrote %s (%d tasks, %d edges)@." path (Core.Graph.n_tasks graph)
      (Core.Graph.n_edges graph)
  in
  let path_arg =
    Arg.(value & opt string "graph.dot" & info [ "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a benchmark task graph as Graphviz DOT.")
    Term.(const run $ bench_arg $ path_arg)

let () =
  let info =
    Cmd.info "tats" ~version:Core.version
      ~doc:
        "Thermal-aware task allocation and scheduling for embedded systems \
         (reproduction of Hung et al., DATE 2005)."
  in
  exit
    (Cmd.eval ~argv:(Core.jobs_argv Sys.argv)
       (Cmd.group info
          [
            table1_cmd; table2_cmd; table3_cmd; checks_cmd; schedule_cmd;
            thermal_cmd; floorplan_cmd; export_cmd; compare_cmd; dvs_cmd;
            pareto_cmd; analyze_cmd; dtm_cmd'; transient_cmd; online_cmd;
            campaign_cmd; robustness_cmd; artifacts_cmd; client_cmd;
          ]))
