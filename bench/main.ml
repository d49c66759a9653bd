(* Benchmark harness.

   Running `dune exec bench/main.exe` does, in order:

   1. Regenerates every table and figure of the paper's evaluation
      (Tables 1-3 side by side with the published numbers, and the two
      Figure-1 flows as executable stage traces) and verifies the
      reproduction's shape criteria.
   2. Runs the ablation studies DESIGN.md calls out: the DC cost-weight
      sweep, leakage feedback on/off, GA floorplanning effort, and the
      compact (dense LU) vs grid (sparse CG) thermal solvers.
   3. Measures the parallel scaling of the domain-pool workloads (GA
      fitness, SA restarts, fine-grained tasks) at 1/2/4 domains and
      verifies they are bit-identical to the sequential runs.
   4. Drives the campaign runner and gates its resume invariants (byte-
      identical manifests, cheap no-op resume).
   5. Bounds the disabled-mode observability overhead.

   Throughput of the online, serving and heterogeneous-platform layers is
   measured by perfbench/ (workloads online-stream, tatsd-mix, dag-sweep);
   their invariants are tier-1 tests.

   Pass --jobs N to size the default execution pool used by the table
   phase, and --only PHASE (repeatable) to run a subset of the phases.

   Every gate that prints FAIL makes the run exit 1, once, after every
   selected phase has run; SKIP never fails. Every BENCH_*.json written
   is echoed as one machine-readable line `BENCH-JSON <path>` for CI
   collectors. *)

module Json = Core.Serve.Json

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* One greppable line per machine-readable artifact. *)
let announce_json path = Printf.printf "BENCH-JSON %s\n" path

(* Every BENCH_*.json goes through the wire protocol's encoder, so strings
   are JSON-escaped and floats print in their shortest exact form. *)
let write_json path (j : Json.t) =
  Core.Fsio.write_atomic path (Json.to_string j ^ "\n");
  Printf.printf "wrote %s\n" path;
  announce_json path

let num f = Json.Num f
let int n = Json.Num (float_of_int n)
let str s = Json.Str s
let opt_str = function Some s -> Json.Str s | None -> Json.Null

(* --- gates -------------------------------------------------------------- *)

(* [gate name ok] is the verdict string a phase prints and records in its
   JSON. A FAIL is also remembered; the run exits 1 once, after the last
   phase, so one failing gate does not hide the verdicts that follow. *)
let failed_gates : string list ref = ref []

let gate name ok =
  if not ok then failed_gates := name :: !failed_gates;
  if ok then "PASS" else "FAIL"

(* --- per-phase timing --------------------------------------------------- *)

(* Every top-level harness phase runs under [timed_phase]: wall time lands
   in BENCH_phases.json, and when --trace is active the phase is also a
   span, so the Chrome timeline shows the harness structure above the
   library's own spans. *)
let phase_times : (string * float) list ref = ref []

(* The command line is a sequence of [FLAG VALUE] pairs, each FLAG one of
   [known_flags] and repeatable. Anything else (an unknown or misspelt
   flag, a flag without its value, a stray word) exits 2 naming it before
   any phase runs, as an unknown --only phase does: a typo must not change
   what is measured without a word. *)
let known_flags = [ "--only"; "--jobs"; "--trace"; "--metrics" ]

let flags =
  let usage fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "bench: %s\nflags: %s, each with a value\n" msg
          (String.concat ", " known_flags);
        exit 2)
      fmt
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | flag :: _ when not (List.mem flag known_flags) -> usage "unknown flag %s" flag
    | [ flag ] -> usage "%s expects a value" flag
    | flag :: value :: rest -> parse ((flag, value) :: acc) rest
  in
  parse [] (List.tl (Array.to_list Sys.argv))

(* Every VALUE given as [name VALUE] on the command line, in order. *)
let flag_values name =
  List.filter_map (fun (flag, value) -> if flag = name then Some value else None) flags

(* --only NAME (repeatable) restricts the run to the named phases. *)
let only_phases = flag_values "--only"

let timed_phase name f =
  if only_phases = [] || List.mem name only_phases then begin
    let t0 = Unix.gettimeofday () in
    Core.Trace.with_span ("bench." ^ name) f;
    phase_times := (name, Unix.gettimeofday () -. t0) :: !phase_times
  end

let write_phases () =
  let phases = List.rev !phase_times in
  let total = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 phases in
  Printf.printf "\nper-phase wall time:\n";
  List.iter
    (fun (name, t) ->
      Printf.printf "  %-28s %8.2f s (%4.1f%%)\n" name t
        (100.0 *. t /. Float.max total 1e-9))
    phases;
  (* Process-wide execution-runtime counters accumulated across every
     phase, from the metrics registry. *)
  let pool_counter name =
    let c = Core.Metricsreg.counter ("pool." ^ name) in
    (name, int (Core.Metricsreg.counter_value c))
  in
  write_json "BENCH_phases.json"
    (Json.Obj
       [
         ("total_wall_s", num total);
         ( "phases",
           Json.Arr
             (List.map
                (fun (name, t) ->
                  Json.Obj [ ("name", str name); ("wall_s", num t) ])
                phases) );
         ( "pool",
           Json.Obj
             (List.map pool_counter
                [ "batches"; "tasks"; "steals"; "parks" ]) );
       ])

(* --- shared fixtures ---------------------------------------------------- *)

(* The 4-PE platform floorplan: four 1.6e-5 m^2 blocks on a grid. *)
let pe_placement () =
  Core.Grid.layout
    (Array.init 4 (fun i ->
         Core.Block.make ~name:(Printf.sprintf "PE%d" i) ~area:1.6e-5 ()))

let platform_hotspot () = Core.Hotspot.create (pe_placement ())

(* [n] blocks with seeded random areas in [min_area, 2.5e-5] m^2, the
   floorplanners' workload. *)
let random_blocks n ~min_area =
  let rng = Core.Rng.create 7 in
  Array.init n (fun i ->
      Core.Block.make ~name:(Printf.sprintf "b%d" i)
        ~area:(Core.Rng.uniform rng min_area 2.5e-5)
        ())

let total_area blocks =
  Array.fold_left (fun a b -> a +. b.Core.Block.area) 0.0 blocks

(* ----------------------------------------------------------------------- *)
(* 1. Table and figure regeneration                                         *)
(* ----------------------------------------------------------------------- *)

(* Inquiry-engine accounting for the table regeneration, printed as a
   human-readable summary and dumped as BENCH_inquiry.json for machine
   consumers (CI trend lines). [factored_solves] is what the engines
   actually paid (n_blocks per engine build); [dense_solves] is what the
   pre-engine path would have paid (one factored solve per fixed-point
   iteration plus the initial solve of every inquiry). *)
let inquiry_summary ~elapsed =
  let s = Core.Inquiry.global_stats () in
  let ratio x y = if y = 0 then 0.0 else float_of_int x /. float_of_int y in
  let hit_rate = ratio s.Core.Inquiry.cache_hits s.Core.Inquiry.inquiries in
  let reduction =
    ratio s.Core.Inquiry.dense_solves s.Core.Inquiry.factored_solves
  in
  let per_sec =
    if elapsed <= 0.0 then 0.0
    else float_of_int s.Core.Inquiry.inquiries /. elapsed
  in
  Printf.printf
    "\ninquiry engine: %d inquiries (%.0f/s), %d cache hits (%.1f%%), %d \
     fixed-point iterations\n"
    s.Core.Inquiry.inquiries per_sec s.Core.Inquiry.cache_hits
    (100.0 *. hit_rate) s.Core.Inquiry.fp_iterations;
  Printf.printf
    "factored solves: %d vs %d dense-path equivalents -> %.1fx fewer (%s >= \
     5x target)\n"
    s.Core.Inquiry.factored_solves s.Core.Inquiry.dense_solves reduction
    (gate "inquiry solve reduction >= 5x" (reduction >= 5.0));
  write_json "BENCH_inquiry.json"
    (Json.Obj
       [
         ("inquiries", int s.Core.Inquiry.inquiries);
         ("inquiries_per_sec", num per_sec);
         ("cache_hits", int s.Core.Inquiry.cache_hits);
         ("cache_hit_rate", num hit_rate);
         ("fp_iterations", int s.Core.Inquiry.fp_iterations);
         ("delta_evals", int s.Core.Inquiry.delta_evals);
         ("factored_solves", int s.Core.Inquiry.factored_solves);
         ("dense_solves", int s.Core.Inquiry.dense_solves);
         ("solve_reduction", num reduction);
         ("engine_wall_s", num s.Core.Inquiry.wall_time);
         ("tables_wall_s", num elapsed);
       ])

let regenerate_tables () =
  hr "Tables 1-3 (paper vs measured)";
  Core.Inquiry.reset_global_stats ();
  let t0 = Unix.gettimeofday () in
  let t = Core.Experiments.tables () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "all tables regenerated in %.1f s\n\n" elapsed;
  print_string (Core.Report.tables t);
  let { Core.Experiments.table1; table2; table3 } = t in
  let checks = Core.Experiments.shape_checks ~table1 ~table2 ~table3 in
  List.iter
    (fun (c : Core.Experiments.shape_check) ->
      ignore (gate c.Core.Experiments.check c.Core.Experiments.holds : string))
    checks;
  inquiry_summary ~elapsed

let figure1_flows () =
  hr "Figure 1 — the two flows as executable stage traces";
  let graph = Core.Benchmarks.load 1 in
  let show name (o : Core.Flow.outcome) =
    Printf.printf "%s:\n" name;
    List.iter
      (fun (e : Core.Flow.log_entry) ->
        Printf.printf "  [%s] %s\n" (Core.Flow.stage_name e.Core.Flow.stage)
          e.Core.Flow.detail)
      o.Core.Flow.log;
    Format.printf "  -> %a@." Core.Metrics.pp_row o.Core.Flow.row
  in
  show "(a) thermal-aware co-synthesis"
    (Core.Flow.run_cosynthesis ~graph ~lib:(Core.Catalog.default_library ())
       ~policy:Core.Policy.Thermal_aware ());
  show "(b) thermal-aware platform-based design"
    (Core.Flow.run_platform ~graph ~lib:(Core.Catalog.platform_library ())
       ~policy:Core.Policy.Thermal_aware ())

(* ----------------------------------------------------------------------- *)
(* 2. Ablations                                                             *)
(* ----------------------------------------------------------------------- *)

let ablation_weight_sweep () =
  hr "Ablation — DC cost-weight sweep (thermal policy, Bm1 platform)";
  Printf.printf "%-12s %10s %10s %10s %10s\n" "weight/D" "makespan" "TotPow(W)"
    "MaxT(C)" "AvgT(C)";
  let graph = Core.Benchmarks.load 0 in
  let lib = Core.Catalog.platform_library () in
  let deadline = Core.Graph.deadline graph in
  List.iter
    (fun mult ->
      let weights = { Core.Policy.cost_weight = mult *. deadline } in
      let pes = Core.Catalog.platform_instances 4 in
      let hotspot =
        Core.Hotspot.create
          (Core.Grid.layout
             (Array.map
                (fun (i : Core.Pe.inst) ->
                  Core.Block.make ~name:(string_of_int i.Core.Pe.inst_id)
                    ~area:i.Core.Pe.kind.Core.Pe.area ())
                pes))
      in
      let s =
        Core.List_sched.run ~weights ~hotspot ~graph ~lib ~pes
          ~policy:Core.Policy.Thermal_aware ()
      in
      let row = Core.Metrics.row s ~lib ~hotspot in
      Printf.printf "%-12.2f %10.1f %10.2f %10.2f %10.2f%s\n" mult
        s.Core.Schedule.makespan row.Core.Metrics.total_power
        row.Core.Metrics.max_temp row.Core.Metrics.avg_temp
        (if s.Core.Schedule.makespan > deadline then "  (deadline MISSED)" else ""))
    [ 0.0; 0.15; 0.4; 1.0; 2.0; 4.0; 8.0; 16.0 ];
  Printf.printf
    "(the adaptive ASP bisects for the strongest weight that still meets the \
     deadline)\n"

let ablation_leakage () =
  hr "Ablation — temperature-dependent leakage feedback";
  Printf.printf "%-8s %-10s %12s %12s\n" "bench" "policy" "MaxT w/leak" "MaxT linear";
  let lib = Core.Catalog.platform_library () in
  List.iter
    (fun bench ->
      let graph = Core.Benchmarks.load bench in
      List.iter
        (fun policy ->
          let with_leak = Core.Flow.run_platform ~graph ~lib ~policy () in
          let without = Core.Flow.run_platform ~leakage:false ~graph ~lib ~policy () in
          Printf.printf "%-8s %-10s %12.2f %12.2f\n" (Core.Graph.name graph)
            (Core.Policy.name policy) with_leak.Core.Flow.row.Core.Metrics.max_temp
            without.Core.Flow.row.Core.Metrics.max_temp)
        [ Core.Policy.Baseline; Core.Policy.Thermal_aware ])
    [ 0; 3 ]

let ablation_ga_effort () =
  hr "Ablation — GA floorplanning effort";
  Printf.printf "%-14s %12s %12s\n" "generations" "cost" "dead space";
  let blocks = random_blocks 6 ~min_area:8e-6 in
  let blocks_area = total_area blocks in
  List.iter
    (fun generations ->
      let params = { Core.Ga.default_params with Core.Ga.generations } in
      let r =
        Core.Ga.run ~params ~seed:42 ~blocks
          ~cost:(Core.Flow.floorplan_cost ~blocks_area)
          ()
      in
      Printf.printf "%-14d %12.4f %11.1f%%\n" generations r.Core.Ga.best_cost
        (100.0 *. Core.Placement.dead_space_ratio r.Core.Ga.best_placement))
    [ 1; 5; 15; 60; 200 ]

let ablation_solvers () =
  hr "Ablation — compact (dense LU) vs grid (sparse CG) thermal model";
  let placement = pe_placement () in
  let power = [| 2.0; 6.0; 1.0; 3.0 |] in
  let compact = Core.Steady.create (Core.Rcmodel.build Core.Package.default placement) in
  let t_compact = Core.Steady.block_temperatures compact ~power in
  Printf.printf "%-14s %10s %10s %10s %10s\n" "model" "PE0" "PE1" "PE2" "PE3";
  Printf.printf "%-14s %10.2f %10.2f %10.2f %10.2f\n" "compact" t_compact.(0)
    t_compact.(1) t_compact.(2) t_compact.(3);
  List.iter
    (fun n ->
      let grid = Core.Gridmodel.build ~nx:n ~ny:n Core.Package.default placement in
      let t = Core.Gridmodel.block_temperatures grid ~power in
      Printf.printf "%-14s %10.2f %10.2f %10.2f %10.2f\n"
        (Printf.sprintf "grid %dx%d" n n) t.(0) t.(1) t.(2) t.(3))
    [ 8; 16; 32 ];
  Printf.printf "(block means agree within a couple of °C)\n"

let ablation_mappers () =
  hr "Ablation — constructive ASP vs HEFT vs SA mapper (makespans, 4-PE platform)";
  Printf.printf "%-8s %10s %10s %10s %10s\n" "bench" "ASP" "HEFT" "SA" "deadline";
  let lib = Core.Catalog.platform_library () in
  let pes = Core.Catalog.platform_instances 4 in
  List.iter
    (fun bench ->
      let graph = Core.Benchmarks.load bench in
      let asp =
        Core.List_sched.run ~graph ~lib ~pes ~policy:Core.Policy.Baseline ()
      in
      let heft = Core.Heft.run ~graph ~lib ~pes () in
      let sa =
        Core.Sa_mapper.run
          ~params:
            {
              Core.Sa_mapper.initial_temperature = 30.0;
              cooling = 0.9;
              moves_per_temperature = 40;
              min_temperature = 0.3;
            }
          ~seed:1 ~objective:Core.Sa_mapper.Makespan ~graph ~lib ~pes ()
      in
      Printf.printf "%-8s %10.1f %10.1f %10.1f %10.0f\n" (Core.Graph.name graph)
        asp.Core.Schedule.makespan heft.Core.Schedule.makespan
        sa.Core.Sa_mapper.schedule.Core.Schedule.makespan
        (Core.Graph.deadline graph))
    [ 0; 1; 2; 3 ]

let ablation_dvs () =
  hr "Ablation — DVS slack reclamation on top of each policy (Bm1 platform)";
  Printf.printf "%-10s %12s %12s %14s %12s\n" "policy" "MaxT before" "MaxT after"
    "energy saved" "makespan";
  let graph = Core.Benchmarks.load 0 in
  let lib = Core.Catalog.platform_library () in
  List.iter
    (fun policy ->
      let o = Core.Flow.run_platform ~graph ~lib ~policy () in
      let s = o.Core.Flow.schedule in
      let plan = Core.Dvs.reclaim ~lib s in
      let after = Core.Dvs.thermal_report plan ~hotspot:o.Core.Flow.hotspot in
      Printf.printf "%-10s %12.2f %12.2f %13.1f%% %12.1f\n" (Core.Policy.name policy)
        o.Core.Flow.row.Core.Metrics.max_temp after.Core.Metrics.max_temp
        (100.0 *. Core.Dvs.energy_saving_ratio plan)
        plan.Core.Dvs.makespan)
    Core.Policy.all;
  Printf.printf
    "(the thermal ASP already spent the slack, so DVS has little left to reclaim)\n"

let ablation_bus () =
  hr "Ablation — communication models: free bus vs 2x2 mesh NoC";
  Printf.printf "%-8s %14s %12s\n" "bench" "free makespan" "mesh mksp";
  let lib = Core.Catalog.platform_library () in
  let mesh_lib =
    Core.Library.generate ~seed:77
      ~n_task_types:Core.Benchmarks.n_task_types
      ~kinds:[ Core.Catalog.platform_kind () ]
      ~comm:(Core.Comm.mesh ~cols:2 ~per_hop_delay:8.0 ())
      ()
  in
  let pes = Core.Catalog.platform_instances 4 in
  List.iter
    (fun bench ->
      let graph = Core.Benchmarks.load bench in
      let free =
        Core.List_sched.run ~graph ~lib ~pes ~policy:Core.Policy.Baseline ()
      in
      let mesh =
        Core.List_sched.run ~graph ~lib:mesh_lib ~pes ~policy:Core.Policy.Baseline ()
      in
      Printf.printf "%-8s %14.1f %12.1f\n" (Core.Graph.name graph)
        free.Core.Schedule.makespan mesh.Core.Schedule.makespan)
    [ 0; 1; 2; 3 ]

let ablation_refinement () =
  hr "Ablation — floorplan <-> schedule refinement rounds (thermal cosynth)";
  Printf.printf "%-8s %10s %10s %10s\n" "bench" "1 round" "2 rounds" "3 rounds";
  let lib = Core.Catalog.default_library () in
  List.iter
    (fun bench ->
      let graph = Core.Benchmarks.load bench in
      let peak rounds =
        (Core.Flow.run_cosynthesis ~refine_rounds:rounds ~graph ~lib
           ~policy:Core.Policy.Thermal_aware ())
          .Core.Flow.row
          .Core.Metrics.max_temp
      in
      Printf.printf "%-8s %10.2f %10.2f %10.2f\n" (Core.Graph.name graph) (peak 1)
        (peak 2) (peak 3))
    [ 0; 1 ];
  Printf.printf
    "(round 2 re-floorplans under the policy schedule's own powers)\n"

let ablation_dtm () =
  hr "Ablation — runtime DTM throttling vs design-time policy (Bm1, warmed up)";
  Printf.printf "%-10s %12s %12s %12s %10s\n" "policy" "static" "simulated"
    "throttled" "deadline";
  let graph = Core.Benchmarks.load 0 in
  let lib = Core.Catalog.platform_library () in
  let params =
    { Core.Dtm.default_params with Core.Dtm.trigger = 90.0; passes = 150 }
  in
  List.iter
    (fun policy ->
      let o = Core.Flow.run_platform ~graph ~lib ~policy () in
      let r = Core.Dtm.simulate ~params ~lib ~hotspot:o.Core.Flow.hotspot
          o.Core.Flow.schedule in
      Printf.printf "%-10s %12.1f %12.1f %11.1f%% %10s\n" (Core.Policy.name policy)
        o.Core.Flow.schedule.Core.Schedule.makespan r.Core.Dtm.makespan
        (100.0 *. r.Core.Dtm.throttled_fraction)
        (if r.Core.Dtm.meets_deadline then "met" else "MISSED"))
    Core.Policy.all;
  Printf.printf
    "(the thermal-aware schedule needs the least runtime intervention)\n"

let design_space_exploration () =
  hr "Design-space exploration — cost vs peak temperature (Bm1, co-synthesis)";
  let graph = Core.Benchmarks.load 0 in
  let lib = Core.Catalog.default_library () in
  let points = Core.Pareto.explore ~graph ~lib () in
  Format.printf "%a@." Core.Pareto.pp_points points;
  Format.printf "Pareto frontier:@.%a@." Core.Pareto.pp_points
    (Core.Pareto.frontier points)

(* ----------------------------------------------------------------------- *)
(* 3. Parallel scaling of the domain-pool workloads                         *)
(* ----------------------------------------------------------------------- *)

(* Each workload returns an observable fingerprint of its result; the same
   fingerprint must come back at every pool size (the pool's determinism
   contract), and wall time should drop with domains when cores exist. *)
type scaling_row = {
  workload : string;
  times : (int * float) list; (* jobs -> wall seconds *)
  identical : bool;
}

let scaling_jobs = [ 1; 2; 4 ]

let measure_workload ~name (f : Core.Pool.t -> 'a) =
  let run jobs =
    Core.Pool.with_pool ~jobs (fun pool ->
        let t0 = Unix.gettimeofday () in
        let v = f pool in
        (jobs, Unix.gettimeofday () -. t0, v))
  in
  let results = List.map run scaling_jobs in
  let _, _, reference = List.hd results in
  {
    workload = name;
    times = List.map (fun (j, t, _) -> (j, t)) results;
    identical = List.for_all (fun (_, _, v) -> v = reference) results;
  }

(* A pure sub-millisecond task: ~10-40 us of float work, no allocation.
   Thousands of these at chunk:1 are the schedule that exposes per-task
   runtime overhead: the pool pays one atomic claim per task. *)
let fine_task i =
  let x = ref (float_of_int (i + 1) *. 1e-3) in
  for _ = 1 to 2000 do
    x := !x +. (1.0 /. (1.0 +. (!x *. !x)))
  done;
  !x

let fine_tasks = 4000

let skip_reason_of_cores cores =
  Printf.sprintf "host has %d core%s (< 4): speedup is not measurable" cores
    (if cores = 1 then "" else "s")

let parallel_scaling () =
  hr "Parallel scaling — domain-pool workloads at 1/2/4 domains";
  let cores = Domain.recommended_domain_count () in
  let graph = Core.Benchmarks.load 0 in
  let lib = Core.Catalog.platform_library () in
  let pes = Core.Catalog.platform_instances 4 in
  let blocks = random_blocks 6 ~min_area:8e-6 in
  let blocks_area = total_area blocks in
  let thermal_cost p =
    Core.Flow.floorplan_cost ~blocks_area p
    +. 0.05
       *. (Core.Hotspot.peak_temperature (Core.Hotspot.create p)
             ~power:[| 9.0; 10.0; 1.0; 1.5; 0.8; 1.2 |]
           -. Core.Package.default.Core.Package.ambient)
  in
  let rows =
    [
      measure_workload ~name:"GA thermal floorplan (15 generations)" (fun pool ->
          let r =
            Core.Ga.run
              ~params:{ Core.Ga.default_params with Core.Ga.generations = 15 }
              ~pool ~seed:42 ~blocks ~cost:thermal_cost ()
          in
          (r.Core.Ga.best_cost, r.Core.Ga.history));
      measure_workload ~name:"SA mapper (4 restarts)" (fun pool ->
          let r =
            Core.Sa_mapper.run_restarts
              ~params:
                {
                  Core.Sa_mapper.initial_temperature = 30.0;
                  cooling = 0.9;
                  moves_per_temperature = 40;
                  min_temperature = 0.3;
                }
              ~pool ~restarts:4 ~seed:1 ~objective:Core.Sa_mapper.Makespan
              ~graph ~lib ~pes ()
          in
          (r.Core.Sa_mapper.best_restart, r.Core.Sa_mapper.restart_costs));
    ]
  in
  (* Fine-grained phase: thousands of sub-millisecond tasks, scheduled one
     index at a time (chunk:1) so every task is an individual claim —
     the schedule that exposes per-task runtime overhead. *)
  let fine_row =
    measure_workload
      ~name:(Printf.sprintf "fine-grained (%d sub-ms tasks, chunk 1)" fine_tasks)
      (fun pool ->
        Core.Pool.parallel_for_reduce ~chunk:1 pool ~n:fine_tasks ~init:0.0
          ~combine:( +. ) fine_task)
  in
  (* One extra 4-domain run to surface the runtime counters of a
     fine-grained schedule. *)
  let fine_stats =
    Core.Pool.with_pool ~jobs:4 (fun pool ->
        ignore
          (Core.Pool.parallel_for_reduce ~chunk:1 pool ~n:fine_tasks ~init:0.0
             ~combine:( +. ) fine_task);
        Core.Pool.stats pool)
  in
  let time_at jobs row = List.assoc jobs row.times in
  let speedup4 row = time_at 1 row /. Float.max (time_at 4 row) 1e-9 in
  Printf.printf "detected cores: %d\n" cores;
  Printf.printf "%-38s %9s %9s %9s %9s %10s\n" "workload" "jobs=1" "jobs=2"
    "jobs=4" "speedup" "identical";
  List.iter
    (fun row ->
      Printf.printf "%-38s %8.3fs %8.3fs %8.3fs %8.2fx %10s\n" row.workload
        (time_at 1 row) (time_at 2 row) (time_at 4 row) (speedup4 row)
        (if row.identical then "yes" else "NO"))
    (rows @ [ fine_row ]);
  Printf.printf "fine-grained runtime counters at jobs=4: %d steals, %d parks\n"
    fine_stats.Core.Pool.steals fine_stats.Core.Pool.parks;
  let all_identical = List.for_all (fun r -> r.identical) (rows @ [ fine_row ]) in
  let best_speedup =
    List.fold_left (fun acc r -> Float.max acc (speedup4 r)) 0.0 rows
  in
  let fine_speedup = speedup4 fine_row in
  (* The >= 2x assertion only means something when the machine has cores to
     scale onto; on fewer than 4 cores it is reported as SKIP — with the
     host core count and an explicit reason recorded, so the perf
     trajectory can tell "1-core host" apart from "regression". *)
  let skip = cores < 4 in
  let skip_reason = if skip then Some (skip_reason_of_cores cores) else None in
  let verdict name s = if skip then "SKIP" else gate name (s >= 2.0) in
  let speedup_verdict = verdict "coarse speedup >= 2x" best_speedup in
  let fine_verdict = verdict "fine-grained speedup >= 2x" fine_speedup in
  let pp_verdict v =
    match skip_reason with Some r -> Printf.sprintf "%s (%s)" v r | None -> v
  in
  ignore (gate "parallel determinism" all_identical : string);
  Printf.printf "determinism across pool sizes: %s\n"
    (if all_identical then "[PASS] bit-identical at jobs 1/2/4" else "[FAIL]");
  Printf.printf "coarse speedup at 4 domains (best %.2fx, >= 2x target): %s\n"
    best_speedup (pp_verdict speedup_verdict);
  Printf.printf "fine-grained speedup at 4 domains (%.2fx, >= 2x target): %s\n"
    fine_speedup (pp_verdict fine_verdict);
  let wall_s row =
    Json.Arr (List.map (fun j -> num (time_at j row)) scaling_jobs)
  in
  write_json "BENCH_parallel.json"
    (Json.Obj
       [
         ("cores", int cores);
         ("host_cores", int cores);
         ("jobs", Json.Arr (List.map int scaling_jobs));
         ( "workloads",
           Json.Arr
             (List.map
                (fun row ->
                  Json.Obj
                    [
                      ("name", str row.workload);
                      ("wall_s", wall_s row);
                      ("speedup4", num (speedup4 row));
                      ("identical", Json.Bool row.identical);
                    ])
                rows) );
         ( "fine_grained",
           Json.Obj
             [
               ("name", str fine_row.workload);
               ("tasks", int fine_tasks);
               ("wall_s", wall_s fine_row);
               ("speedup4", num fine_speedup);
               ("identical", Json.Bool fine_row.identical);
               ("steals4", int fine_stats.Core.Pool.steals);
               ("parks4", int fine_stats.Core.Pool.parks);
               ("speedup_check", str fine_verdict);
               ("skip_reason", opt_str skip_reason);
             ] );
         ("identical", Json.Bool all_identical);
         ("best_speedup4", num best_speedup);
         ("speedup_target", num 2.0);
         ("speedup_check", str speedup_verdict);
         ("skip_reason", opt_str skip_reason);
       ])

(* ----------------------------------------------------------------------- *)
(* 4. Campaign runner — sharded resumable sweeps at the 1000-cell scale    *)
(* ----------------------------------------------------------------------- *)

(* Three measurements on the campaign runner:
   - cells/sec on the pinned golden spec at pool jobs 1/2/4, with the
     manifests of all three runs byte-compared (the runner's determinism
     contract in bench form);
   - the sweep1k builtin (1080 cells) run uninterrupted, then a second
     directory taken through interrupt simulation — one shard of three,
     one artifact truncated mid-"write" — and resumed, with the final
     manifests byte-compared;
   - a no-op resume over the complete 1080-cell store, gated at < 25% of
     the full compute wall (validate-and-skip must stay cheap or resuming
     a mostly-done campaign would not be worth it). *)
let campaign_bench () =
  hr "Campaign runner — resumable sweeps, content-addressed artifacts";
  let module C = Core.Campaign in
  let scratch name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tats-campaign-bench-%d-%s" (Unix.getpid ()) name)
  in
  let manifest_bytes dir =
    Option.value ~default:"" (Core.Fsio.read_file (C.manifest_path dir))
  in
  (* jobs scaling on the 12-cell golden spec *)
  let small = Option.get (C.builtin "golden") in
  let small_rows =
    List.map
      (fun jobs ->
        let dir = scratch (Printf.sprintf "jobs%d" jobs) in
        Core.Fsio.remove_recursive dir;
        let t0 = Unix.gettimeofday () in
        let r = Core.Pool.with_pool ~jobs (fun pool -> C.run ~pool ~dir small) in
        let wall = Unix.gettimeofday () -. t0 in
        (jobs, dir, r, wall, float_of_int r.C.total /. Float.max wall 1e-9))
      [ 1; 2; 4 ]
  in
  let jobs_identical =
    match small_rows with
    | (_, d0, _, _, _) :: rest ->
        let m0 = manifest_bytes d0 in
        (not (String.equal m0 ""))
        && List.for_all
             (fun (_, d, _, _, _) -> String.equal m0 (manifest_bytes d))
             rest
    | [] -> false
  in
  Printf.printf "%-22s %6s %9s %12s\n" "spec" "jobs" "wall s" "cells/sec";
  List.iter
    (fun (jobs, _, (r : C.run_report), wall, cps) ->
      Printf.printf "%-22s %6d %9.3f %12.1f\n"
        (Printf.sprintf "golden (%d cells)" r.C.total)
        jobs wall cps)
    small_rows;
  let jobs_verdict = gate "campaign manifests across jobs" jobs_identical in
  Printf.printf "manifests byte-identical across jobs 1/2/4: %s\n" jobs_verdict;
  (* the >= 1000-cell scale run, interrupt simulation and resume *)
  let sweep = Option.get (C.builtin "sweep1k") in
  let dir_full = scratch "full" and dir_int = scratch "interrupted" in
  Core.Fsio.remove_recursive dir_full;
  Core.Fsio.remove_recursive dir_int;
  let t0 = Unix.gettimeofday () in
  let r_full =
    Core.Pool.with_pool ~jobs:4 (fun pool -> C.run ~pool ~dir:dir_full sweep)
  in
  let full_wall = Unix.gettimeofday () -. t0 in
  let full_cps = float_of_int r_full.C.total /. Float.max full_wall 1e-9 in
  Printf.printf "%-22s %6d %9.3f %12.1f\n"
    (Printf.sprintf "sweep1k (%d cells)" r_full.C.total)
    4 full_wall full_cps;
  ignore
    (Core.Pool.with_pool ~jobs:4 (fun pool ->
         C.run ~pool ~shards:3 ~shard:0 ~dir:dir_int sweep)
      : C.run_report);
  (* simulate a kill mid-write: truncate the first shard-0 artifact *)
  (let first_id = C.cell_id (List.hd (C.expand sweep)) in
   let path = C.artifact_path dir_int first_id in
   match Core.Fsio.read_file path with
   | Some bytes ->
       Core.Fsio.write_atomic path (String.sub bytes 0 (String.length bytes / 2))
   | None -> ());
  let t0 = Unix.gettimeofday () in
  let r_resume =
    Core.Pool.with_pool ~jobs:4 (fun pool -> C.run ~pool ~dir:dir_int sweep)
  in
  let resume_wall = Unix.gettimeofday () -. t0 in
  let resume_identical =
    (not (String.equal (manifest_bytes dir_full) ""))
    && String.equal (manifest_bytes dir_full) (manifest_bytes dir_int)
  in
  let resume_verdict = gate "campaign resume manifest" resume_identical in
  Printf.printf
    "interrupted at shard 0/3 (+1 truncated artifact), resume computed \
     %d/%d (%d invalid re-run) in %.3f s: manifest %s\n"
    r_resume.C.computed r_resume.C.total r_resume.C.invalid resume_wall
    (if resume_identical then "PASS (byte-identical)" else "FAIL");
  (* no-op resume overhead over the complete store *)
  let t0 = Unix.gettimeofday () in
  let r_noop = C.run ~dir:dir_full sweep in
  let noop_wall = Unix.gettimeofday () -. t0 in
  let overhead = noop_wall /. Float.max full_wall 1e-9 in
  let overhead_verdict =
    gate "campaign no-op resume < 25%" (r_noop.C.computed = 0 && overhead < 0.25)
  in
  Printf.printf
    "no-op resume (all %d cells reused): %.3f s = %.1f%% of full compute \
     (target < 25%%): %s\n"
    r_noop.C.reused noop_wall (100.0 *. overhead) overhead_verdict;
  let small_cells =
    match small_rows with (_, _, r, _, _) :: _ -> r.C.total | [] -> 0
  in
  let per_jobs f = Json.Arr (List.map f small_rows) in
  write_json "BENCH_campaign.json"
    (Json.Obj
       [
         ( "jobs_scaling",
           Json.Obj
             [
               ("cells", int small_cells);
               ("jobs", per_jobs (fun (j, _, _, _, _) -> int j));
               ("wall_s", per_jobs (fun (_, _, _, w, _) -> num w));
               ("cells_per_sec", per_jobs (fun (_, _, _, _, c) -> num c));
               ("manifest_identical", str jobs_verdict);
             ] );
         ( "scale",
           Json.Obj
             [
               ("cells", int r_full.C.total);
               ("jobs", int 4);
               ("wall_s", num full_wall);
               ("cells_per_sec", num full_cps);
               ("interrupted_shard", str "0/3");
               ("resume_computed", int r_resume.C.computed);
               ("resume_invalid", int r_resume.C.invalid);
               ("resume_wall_s", num resume_wall);
               ("resume_manifest_identical", str resume_verdict);
             ] );
         ( "resume_overhead",
           Json.Obj
             [
               ("noop_wall_s", num noop_wall);
               ("fraction_of_full", num overhead);
               ("target", num 0.25);
               ("check", str overhead_verdict);
             ] );
       ]);
  List.iter (fun (_, d, _, _, _) -> Core.Fsio.remove_recursive d) small_rows;
  Core.Fsio.remove_recursive dir_full;
  Core.Fsio.remove_recursive dir_int

(* ----------------------------------------------------------------------- *)
(* 5. Observability overhead                                                *)
(* ----------------------------------------------------------------------- *)

(* The tracing layer promises that a disabled [with_span] costs one atomic
   load — cheap enough for permanent residence on the hot paths. This
   section puts a number on that promise without needing a pre-PR build:
   measure the per-call cost of a disabled bracket and of a registry
   counter bump, count how many spans one thermal-ASP kernel would record
   when traced, and bound the disabled-mode overhead as
   span_count * (guard + counter) / kernel_wall. The <2% target is the
   acceptance bar for keeping the instrumentation always compiled in. *)
let observability_overhead () =
  hr "Observability overhead — disabled instrumentation on the thermal ASP";
  Core.Trace.reset ();
  (* Per-call cost of a disabled span bracket (atomic load + closure). *)
  let reps = 5_000_000 in
  let sink = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to reps do
    sink := Core.Trace.with_span "noop" (fun () -> !sink + i)
  done;
  let guard_ns = (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e9 in
  (* Per-call cost of an always-on registry counter bump. *)
  let c = Core.Metricsreg.counter "bench.overhead_probe" in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    Core.Metricsreg.incr c
  done;
  let incr_ns = (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e9 in
  (* The kernel: one thermal-aware ASP run, the span-densest path. *)
  let graph = Core.Benchmarks.load 0 in
  let lib = Core.Catalog.platform_library () in
  let pes = Core.Catalog.platform_instances 4 in
  let hotspot = platform_hotspot () in
  let kernel () =
    ignore
      (Core.List_sched.run ~hotspot ~graph ~lib ~pes
         ~policy:Core.Policy.Thermal_aware ())
  in
  kernel () (* warm the inquiry engine and cache once *);
  let kernel_reps = 5 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to kernel_reps do
    kernel ()
  done;
  let kernel_wall = (Unix.gettimeofday () -. t0) /. float_of_int kernel_reps in
  (* Count the spans the same kernel records when tracing is on. *)
  Core.Trace.start ();
  kernel ();
  Core.Trace.stop ();
  let spans = Core.Trace.span_count () in
  Core.Trace.reset ();
  let per_span_ns = guard_ns +. incr_ns in
  let overhead =
    float_of_int spans *. per_span_ns *. 1e-9 /. Float.max kernel_wall 1e-9
  in
  let verdict = gate "observability overhead < 2%" (overhead < 0.02) in
  Printf.printf "disabled with_span bracket: %.1f ns/call\n" guard_ns;
  Printf.printf "registry counter bump:      %.1f ns/call\n" incr_ns;
  Printf.printf "thermal ASP kernel:         %.4f s/run, %d spans when traced\n"
    kernel_wall spans;
  Printf.printf
    "estimated disabled-mode overhead: %.4f%% (< 2%% target: %s)\n"
    (100.0 *. overhead) verdict;
  write_json "BENCH_observability.json"
    (Json.Obj
       [
         ("guard_ns", num guard_ns);
         ("counter_ns", num incr_ns);
         ("kernel_wall_s", num kernel_wall);
         ("kernel_spans", int spans);
         ("overhead_fraction", num overhead);
         ("overhead_target", num 0.02);
         ("overhead_check", str verdict);
       ])

(* ----------------------------------------------------------------------- *)
(* The phases, in run order                                                 *)
(* ----------------------------------------------------------------------- *)

(* --only arguments are checked against these names before anything runs,
   so a typo is a hard error instead of a silently empty run. *)
let phases =
  [
    ("tables", regenerate_tables);
    ("figure1", figure1_flows);
    ("ablation-weight-sweep", ablation_weight_sweep);
    ("ablation-leakage", ablation_leakage);
    ("ablation-ga-effort", ablation_ga_effort);
    ("ablation-solvers", ablation_solvers);
    ("ablation-mappers", ablation_mappers);
    ("ablation-dvs", ablation_dvs);
    ("ablation-bus", ablation_bus);
    ("ablation-refinement", ablation_refinement);
    ("ablation-dtm", ablation_dtm);
    ("design-space", design_space_exploration);
    ("parallel-scaling", parallel_scaling);
    ("campaign", campaign_bench);
    ("observability-overhead", observability_overhead);
  ]

let validate_only_phases () =
  let known = List.map fst phases in
  match List.filter (fun p -> not (List.mem p known)) only_phases with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown --only phase%s: %s\nvalid phases: %s\n"
        (if List.length unknown = 1 then "" else "s")
        (String.concat ", " unknown)
        (String.concat ", " known);
      exit 2

let export_trace = function
  | Some path ->
      Core.Trace.stop ();
      Core.Trace.export_chrome path;
      Printf.printf "wrote %d spans to %s\n" (Core.Trace.span_count ()) path;
      announce_json path
  | None -> ()

let () =
  validate_only_phases ();
  let flag_value name =
    match List.rev (flag_values name) with v :: _ -> Some v | [] -> None
  in
  (* --jobs N sizes the default pool used by the table phase; the scaling
     section always measures explicit 1/2/4-domain pools. *)
  (match flag_value "--jobs" with
  | None -> ()
  | Some j -> (
      match int_of_string_opt j with
      | Some j when j >= 1 && j <= Core.Pool.max_jobs ->
          Core.Pool.set_default_jobs j
      | Some j ->
          Printf.eprintf "bench: --jobs must be between 1 and %d, got %d\n"
            Core.Pool.max_jobs j;
          exit 2
      | None ->
          prerr_endline "bench: --jobs expects an integer";
          exit 2));
  let trace_path = flag_value "--trace" in
  let metrics_path = flag_value "--metrics" in
  (match trace_path with Some _ -> Core.Trace.start () | None -> ());
  List.iter
    (fun (name, run) ->
      (* The overhead probe resets the trace, so a --trace run exports what
         was recorded before it. *)
      if name = "observability-overhead" then export_trace trace_path;
      timed_phase name run)
    phases;
  write_phases ();
  (match metrics_path with
  | Some path ->
      Core.Metricsreg.export path;
      Printf.printf "wrote metrics to %s\n" path;
      announce_json path
  | None -> ());
  print_newline ();
  match List.rev !failed_gates with
  | [] -> ()
  | failed ->
      Printf.eprintf "bench: %d gate%s failed: %s\n" (List.length failed)
        (if List.length failed = 1 then "" else "s")
        (String.concat "; " failed);
      exit 1
