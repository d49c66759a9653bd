(* Tests for periodic multi-application scheduling, the makespan lower
   bound, and the robustness experiment. *)

module Graph = Tats_taskgraph.Graph
module Benchmarks = Tats_taskgraph.Benchmarks
module Generator = Tats_taskgraph.Generator
module Pe = Tats_techlib.Pe
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched
module Periodic = Tats_sched.Periodic
module Metrics = Tats_sched.Metrics

let platform_lib = Catalog.platform_library ()
let platform_pes n = Catalog.platform_instances n

let platform_hotspot n =
  Hotspot.create
    (Grid.layout
       (Array.map
          (fun (i : Pe.inst) ->
            Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
          (platform_pes n)))

(* A small pipeline app: 3 tasks in a chain, deadline 400. *)
let small_app ~period =
  let b = Graph.builder ~name:"pipe" ~deadline:400.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:1 () in
  let t2 = Graph.add_task b ~task_type:2 () in
  Graph.add_edge b ~data:16.0 t0 t1;
  Graph.add_edge b ~data:16.0 t1 t2;
  Periodic.make_app ~graph:(Graph.build b) ~period

let second_app ~period =
  let b = Graph.builder ~name:"burst" ~deadline:500.0 in
  let t0 = Graph.add_task b ~task_type:3 () in
  let t1 = Graph.add_task b ~task_type:4 () in
  let t2 = Graph.add_task b ~task_type:5 () in
  Graph.add_edge b ~data:16.0 t0 t1;
  Graph.add_edge b ~data:16.0 t0 t2;
  Periodic.make_app ~graph:(Graph.build b) ~period

(* --- hyperperiod / app construction ------------------------------------- *)

let test_make_app_validation () =
  let bad f = try ignore (f () : Periodic.app); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "fractional period" true
    (bad (fun () -> small_app ~period:400.5));
  Alcotest.(check bool) "period below deadline" true
    (bad (fun () -> small_app ~period:300.0))

let test_hyperperiod_lcm () =
  let apps = [ small_app ~period:400.0; second_app ~period:600.0 ] in
  Alcotest.(check (float 0.0)) "lcm(400,600)" 1200.0 (Periodic.hyperperiod apps);
  Alcotest.(check (float 0.0)) "single app" 400.0
    (Periodic.hyperperiod [ small_app ~period:400.0 ])

(* --- scheduling ---------------------------------------------------------- *)

let schedule_two () =
  Periodic.schedule
    ~apps:[ small_app ~period:400.0; second_app ~period:600.0 ]
    ~lib:platform_lib ~pes:(platform_pes 2) ()

let test_schedule_covers_all_jobs () =
  let t = schedule_two () in
  (* 1200/400 = 3 instances x 3 tasks + 1200/600 = 2 instances x 3 tasks. *)
  Alcotest.(check int) "job count" (9 + 6) (Array.length t.Periodic.entries)

let test_schedule_valid () =
  let t = schedule_two () in
  let violations = Periodic.validate t ~lib:platform_lib in
  Alcotest.(check int) "no violations" 0 (List.length violations)

let test_schedule_meets_deadlines () =
  let t = schedule_two () in
  Alcotest.(check bool) "all deadlines" true (Periodic.meets_all_deadlines t)

let test_releases_respected () =
  let t = schedule_two () in
  Array.iter
    (fun (e : Periodic.entry) ->
      let release =
        float_of_int e.Periodic.job.Periodic.instance
        *. t.Periodic.apps.(e.Periodic.job.Periodic.app).Periodic.period
      in
      Alcotest.(check bool) "after release" true (e.Periodic.start >= release -. 1e-9))
    t.Periodic.entries

let test_energy_sums_instances () =
  (* Every instance of an app on identical PEs burns the same energy, so
     the combined hyperperiod energy decomposes exactly: with periods 400
     and 1200, the hyperperiod (1200) holds 3 instances of the first app
     and 1 of the second. *)
  let solo app =
    Periodic.total_energy
      (Periodic.schedule ~apps:[ app ] ~lib:platform_lib ~pes:(platform_pes 2) ())
  in
  let combined =
    Periodic.schedule
      ~apps:[ small_app ~period:400.0; second_app ~period:1200.0 ]
      ~lib:platform_lib ~pes:(platform_pes 2) ()
  in
  Alcotest.(check (float 1e-6)) "3x + 1x energy"
    ((3.0 *. solo (small_app ~period:400.0)) +. solo (second_app ~period:1200.0))
    (Periodic.total_energy combined)

let test_average_power_definition () =
  let t = schedule_two () in
  Alcotest.(check (float 1e-9)) "energy / hyperperiod"
    (Periodic.total_energy t /. t.Periodic.hyper)
    (Periodic.average_power t)

let test_utilization_bounds () =
  let t = schedule_two () in
  let u = Periodic.utilization t in
  Alcotest.(check bool) "in (0,1]" true (u > 0.0 && u <= 1.0)

let test_thermal_report_consistent () =
  let t = schedule_two () in
  let hotspot = platform_hotspot 2 in
  let r = Periodic.thermal_report t ~hotspot in
  Alcotest.(check bool) "above ambient" true (r.Metrics.avg_temp > 45.0);
  Alcotest.(check bool) "max >= avg" true (r.Metrics.max_temp >= r.Metrics.avg_temp)

let test_thermal_policy_needs_hotspot () =
  Alcotest.check_raises "missing hotspot" List_sched.Thermal_policy_needs_hotspot
    (fun () ->
      ignore
        (Periodic.schedule ~policy:Policy.Thermal_aware
           ~apps:[ small_app ~period:400.0 ]
           ~lib:platform_lib ~pes:(platform_pes 2) ()
         : Periodic.t))

let test_thermal_policy_schedules_validly () =
  let hotspot = platform_hotspot 2 in
  let t =
    Periodic.schedule ~policy:Policy.Thermal_aware ~hotspot
      ~apps:[ small_app ~period:400.0; second_app ~period:600.0 ]
      ~lib:platform_lib ~pes:(platform_pes 2) ()
  in
  Alcotest.(check int) "valid" 0 (List.length (Periodic.validate t ~lib:platform_lib))

let test_more_pes_reduce_peak_power_density () =
  let apps = [ small_app ~period:400.0; second_app ~period:600.0 ] in
  let two = Periodic.schedule ~apps ~lib:platform_lib ~pes:(platform_pes 2) () in
  let four = Periodic.schedule ~apps ~lib:platform_lib ~pes:(platform_pes 4) () in
  let peak t = Tats_util.Stats.max (Periodic.pe_average_powers t) in
  Alcotest.(check bool) "spreading lowers the peak PE power" true
    (peak four <= peak two +. 1e-9)

let test_schedule_adaptive_meets_deadlines_and_not_hotter () =
  let apps = [ small_app ~period:400.0; second_app ~period:600.0 ] in
  let hotspot = platform_hotspot 2 in
  let plain =
    Periodic.schedule ~apps ~lib:platform_lib ~pes:(platform_pes 2) ()
  in
  let adaptive, w =
    Periodic.schedule_adaptive ~policy:Policy.Thermal_aware ~hotspot ~apps
      ~lib:platform_lib ~pes:(platform_pes 2) ()
  in
  Alcotest.(check bool) "weight non-negative" true (w.Policy.cost_weight >= 0.0);
  Alcotest.(check bool) "deadlines met" true (Periodic.meets_all_deadlines adaptive);
  let t_plain = (Periodic.thermal_report plain ~hotspot).Metrics.max_temp in
  let t_adaptive = (Periodic.thermal_report adaptive ~hotspot).Metrics.max_temp in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %.2f <= plain %.2f" t_adaptive t_plain)
    true (t_adaptive <= t_plain +. 1e-9)

(* --- makespan lower bound ------------------------------------------------ *)

let test_lower_bound_below_schedules () =
  Array.iteri
    (fun i _ ->
      let graph = Benchmarks.load i in
      let bound = Metrics.makespan_lower_bound graph ~lib:platform_lib ~n_pes:4 in
      let s =
        List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 4)
          ~policy:Policy.Baseline ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f >= %.1f" (Graph.name graph) s.Schedule.makespan bound)
        true
        (s.Schedule.makespan >= bound -. 1e-6))
    Benchmarks.descriptors

let test_lower_bound_single_pe_is_work () =
  let graph = Benchmarks.load 0 in
  let bound1 = Metrics.makespan_lower_bound graph ~lib:platform_lib ~n_pes:1 in
  let bound4 = Metrics.makespan_lower_bound graph ~lib:platform_lib ~n_pes:4 in
  Alcotest.(check bool) "1 PE bound >= 4 PE bound" true (bound1 >= bound4)

let prop_lower_bound_holds_on_random_graphs =
  QCheck.Test.make ~name:"every schedule respects the lower bound" ~count:40
    QCheck.(pair small_int (int_range 3 25))
    (fun (seed, tasks) ->
      let lo, hi = Generator.feasible_edges ~n_tasks:tasks in
      let edges = lo + ((seed * 3) mod (Stdlib.max 1 (hi - lo + 1))) in
      let graph =
        Generator.generate ~seed ~name:"q"
          {
            Generator.default_spec with
            Generator.n_tasks = tasks;
            n_edges = edges;
            n_task_types = Benchmarks.n_task_types;
          }
      in
      let bound = Metrics.makespan_lower_bound graph ~lib:platform_lib ~n_pes:3 in
      let s =
        List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 3)
          ~policy:Policy.Baseline ()
      in
      s.Schedule.makespan >= bound -. 1e-6)

let prop_periodic_valid_on_random_apps =
  QCheck.Test.make ~name:"random periodic app sets schedule validly" ~count:25
    QCheck.(pair small_int (int_range 3 12))
    (fun (seed, tasks) ->
      let module Generator = Tats_taskgraph.Generator in
      let lo, hi = Generator.feasible_edges ~n_tasks:tasks in
      let edges = lo + ((seed * 3) mod (Stdlib.max 1 (hi - lo + 1))) in
      let graph =
        Generator.generate ~seed ~name:"q"
          {
            Generator.default_spec with
            Generator.n_tasks = tasks;
            n_edges = edges;
            deadline = 2000.0;
            n_task_types = Benchmarks.n_task_types;
          }
      in
      let period = float_of_int (2000 + (100 * (seed mod 5))) in
      let apps =
        [ Periodic.make_app ~graph ~period; small_app ~period:(period *. 2.0) ]
      in
      let t = Periodic.schedule ~apps ~lib:platform_lib ~pes:(platform_pes 3) () in
      (* Structural validity; a job deadline can legitimately be missed
         under contention (the scheduler is best-effort, callers check
         meets_all_deadlines). *)
      List.for_all
        (function
          | Periodic.Job_deadline _ -> true
          | Periodic.Release _ | Periodic.Precedence _ | Periodic.Pe_overlap _ ->
              false)
        (Periodic.validate t ~lib:platform_lib))

(* --- robustness experiment ------------------------------------------------ *)

let test_robustness_thermal_wins_majority () =
  let r = Core.Experiments.robustness ~n:8 ~tasks:24 () in
  Alcotest.(check int) "sample size" 8 r.Core.Experiments.n_graphs;
  Alcotest.(check bool)
    (Printf.sprintf "max-temp wins %d/8" r.Core.Experiments.wins_max)
    true
    (r.Core.Experiments.wins_max >= 6);
  Alcotest.(check bool) "positive mean reduction" true
    (r.Core.Experiments.mean_reduction.Core.Experiments.d_max_temp > 0.0)

let test_robustness_deterministic () =
  let a = Core.Experiments.robustness ~n:4 ~tasks:20 () in
  let b = Core.Experiments.robustness ~n:4 ~tasks:20 () in
  Alcotest.(check (float 0.0)) "same mean"
    a.Core.Experiments.mean_reduction.Core.Experiments.d_max_temp
    b.Core.Experiments.mean_reduction.Core.Experiments.d_max_temp

let () =
  Runner.run "periodic"
    [
      ( "construction",
        [
          Alcotest.test_case "make_app validation" `Quick test_make_app_validation;
          Alcotest.test_case "hyperperiod lcm" `Quick test_hyperperiod_lcm;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "covers all jobs" `Quick test_schedule_covers_all_jobs;
          Alcotest.test_case "valid" `Quick test_schedule_valid;
          Alcotest.test_case "meets deadlines" `Quick test_schedule_meets_deadlines;
          Alcotest.test_case "releases respected" `Quick test_releases_respected;
          Alcotest.test_case "energy sums instances" `Quick test_energy_sums_instances;
          Alcotest.test_case "average power" `Quick test_average_power_definition;
          Alcotest.test_case "utilization" `Quick test_utilization_bounds;
          Alcotest.test_case "thermal report" `Quick test_thermal_report_consistent;
          Alcotest.test_case "thermal needs hotspot" `Quick
            test_thermal_policy_needs_hotspot;
          Alcotest.test_case "thermal schedules validly" `Quick
            test_thermal_policy_schedules_validly;
          Alcotest.test_case "spreading lowers peak power" `Quick
            test_more_pes_reduce_peak_power_density;
          Alcotest.test_case "adaptive coolest feasible" `Quick
            test_schedule_adaptive_meets_deadlines_and_not_hotter;
        ] );
      ( "lower_bound",
        [
          Alcotest.test_case "below benchmark schedules" `Quick
            test_lower_bound_below_schedules;
          Alcotest.test_case "monotone in PEs" `Quick test_lower_bound_single_pe_is_work;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "thermal wins majority" `Quick
            test_robustness_thermal_wins_majority;
          Alcotest.test_case "deterministic" `Quick test_robustness_deterministic;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lower_bound_holds_on_random_graphs; prop_periodic_valid_on_random_apps ]
      );
    ]
