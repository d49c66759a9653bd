(* Tests for the scheduler extensions: HEFT, the simulated-annealing mapper,
   DVS slack reclamation, transient replay metrics, the makespan lower
   bound, and the robustness experiment. *)

module Graph = Tats_taskgraph.Graph
module Benchmarks = Tats_taskgraph.Benchmarks
module Generator = Tats_taskgraph.Generator
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Catalog = Tats_techlib.Catalog
module Comm = Tats_techlib.Comm
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched
module Heft = Tats_sched.Heft
module Sa_mapper = Tats_sched.Sa_mapper
module Dvs = Tats_sched.Dvs
module Online = Tats_sched.Online
module Metrics = Tats_sched.Metrics

let platform_lib = Catalog.platform_library ()
let hetero_lib = Catalog.default_library ()
let platform_pes n = Catalog.platform_instances n

let platform_hotspot n =
  Hotspot.create
    (Grid.layout
       (Array.map
          (fun (i : Pe.inst) ->
            Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
          (platform_pes n)))

(* --- Heft ---------------------------------------------------------------- *)

let test_heft_valid_on_benchmarks () =
  Array.iteri
    (fun i _ ->
      let graph = Benchmarks.load i in
      let s = Heft.run ~graph ~lib:platform_lib ~pes:(platform_pes 4) () in
      Alcotest.(check int)
        (Graph.name graph ^ " valid")
        0
        (List.length (Schedule.validate ~lib:platform_lib s)))
    Benchmarks.descriptors

let test_heft_valid_heterogeneous () =
  let graph = Benchmarks.load 1 in
  let pes = Pe.instances (Catalog.heterogeneous ()) in
  let s = Heft.run ~graph ~lib:hetero_lib ~pes () in
  Alcotest.(check int) "valid" 0 (List.length (Schedule.validate ~lib:hetero_lib s))

let test_heft_competitive_with_asp () =
  (* Insertion-based HEFT should be within 25% of the ASP baseline either
     way on every benchmark. *)
  Array.iteri
    (fun i _ ->
      let graph = Benchmarks.load i in
      let asp =
        List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 4)
          ~policy:Policy.Baseline ()
      in
      let heft = Heft.run ~graph ~lib:platform_lib ~pes:(platform_pes 4) () in
      let ratio = heft.Schedule.makespan /. asp.Schedule.makespan in
      Alcotest.(check bool)
        (Printf.sprintf "%s ratio %.3f" (Graph.name graph) ratio)
        true
        (ratio > 0.75 && ratio < 1.25))
    Benchmarks.descriptors

let test_heft_rank_matches_static_criticality () =
  let graph = Benchmarks.load 0 in
  let a = Heft.upward_rank platform_lib graph in
  let b = Tats_sched.Dc.static_criticality platform_lib graph in
  Array.iteri (fun i x -> Alcotest.(check (float 1e-9)) "same rank" b.(i) x) a

let test_heft_uses_insertion () =
  (* Construct a case where insertion pays: a long task blocks PE0 late,
     leaving an early gap the append-only ASP cannot reuse. On the
     benchmarks it is enough to check HEFT never loses to itself without
     gaps — here we simply check determinism. *)
  let graph = Benchmarks.load 2 in
  let a = Heft.run ~graph ~lib:platform_lib ~pes:(platform_pes 4) () in
  let b = Heft.run ~graph ~lib:platform_lib ~pes:(platform_pes 4) () in
  Alcotest.(check (float 0.0)) "deterministic" a.Schedule.makespan b.Schedule.makespan

(* --- Sa_mapper ------------------------------------------------------------ *)

let fast_params =
  {
    Sa_mapper.initial_temperature = 20.0;
    cooling = 0.85;
    moves_per_temperature = 20;
    min_temperature = 0.5;
  }

let test_sa_mapper_decode_valid () =
  let graph = Benchmarks.load 0 in
  let n = Graph.n_tasks graph in
  let assignment = Array.init n (fun i -> i mod 4) in
  let priority = Array.init n Fun.id in
  let s =
    Sa_mapper.decode ~graph ~lib:platform_lib ~pes:(platform_pes 4) ~assignment
      ~priority
  in
  Alcotest.(check int) "valid" 0 (List.length (Schedule.validate ~lib:platform_lib s));
  (* The mapping is respected. *)
  Array.iteri
    (fun task (e : Schedule.entry) ->
      Alcotest.(check int) "assignment respected" assignment.(task) e.Schedule.pe)
    s.Schedule.entries

let test_sa_mapper_decode_validation () =
  let graph = Benchmarks.load 0 in
  let n = Graph.n_tasks graph in
  Alcotest.(check bool) "bad assignment" true
    (try
       ignore
         (Sa_mapper.decode ~graph ~lib:platform_lib ~pes:(platform_pes 4)
            ~assignment:(Array.make n 9) ~priority:(Array.init n Fun.id)
          : Schedule.t);
       false
     with Invalid_argument _ -> true)

let test_sa_mapper_no_worse_than_baseline () =
  let graph = Benchmarks.load 0 in
  let baseline =
    List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 4)
      ~policy:Policy.Baseline ()
  in
  let r =
    Sa_mapper.run ~params:fast_params ~seed:1 ~objective:Sa_mapper.Makespan ~graph
      ~lib:platform_lib ~pes:(platform_pes 4) ()
  in
  Alcotest.(check bool) "sa <= baseline makespan" true
    (r.Sa_mapper.schedule.Schedule.makespan <= baseline.Schedule.makespan +. 1e-6);
  Alcotest.(check int) "valid" 0
    (List.length (Schedule.validate ~lib:platform_lib r.Sa_mapper.schedule))

let test_sa_mapper_thermal_objective () =
  let graph = Benchmarks.load 0 in
  let hotspot = platform_hotspot 4 in
  let baseline =
    List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 4)
      ~policy:Policy.Baseline ()
  in
  let base_temp = (Metrics.thermal_report baseline ~hotspot).Metrics.max_temp in
  let r =
    Sa_mapper.run ~params:fast_params ~seed:2
      ~objective:(Sa_mapper.Peak_temperature hotspot) ~graph ~lib:platform_lib
      ~pes:(platform_pes 4) ()
  in
  let sa_temp = (Metrics.thermal_report r.Sa_mapper.schedule ~hotspot).Metrics.max_temp in
  Alcotest.(check bool)
    (Printf.sprintf "sa %.2f <= baseline %.2f" sa_temp base_temp)
    true (sa_temp <= base_temp +. 1e-6)

let test_sa_mapper_deterministic () =
  let graph = Benchmarks.load 0 in
  let run () =
    Sa_mapper.run ~params:fast_params ~seed:5 ~objective:Sa_mapper.Makespan ~graph
      ~lib:platform_lib ~pes:(platform_pes 4) ()
  in
  Alcotest.(check (float 0.0)) "same cost" (run ()).Sa_mapper.cost (run ()).Sa_mapper.cost

(* An infinite initial temperature never cools below the minimum, so the
   annealing loop would not end: every non-finite parameter is refused
   before it starts. *)
let test_sa_mapper_rejects_non_finite_params () =
  let graph = Benchmarks.load 0 in
  List.iter
    (fun (what, params) ->
      Alcotest.(check bool) what true
        (try
           ignore
             (Sa_mapper.run ~params ~seed:1 ~objective:Sa_mapper.Makespan ~graph
                ~lib:platform_lib ~pes:(platform_pes 4) ()
               : Sa_mapper.result);
           false
         with Invalid_argument _ -> true))
    [
      ("initial inf", { fast_params with Sa_mapper.initial_temperature = Float.infinity });
      ("initial nan", { fast_params with Sa_mapper.initial_temperature = Float.nan });
      ("minimum inf", { fast_params with Sa_mapper.min_temperature = Float.infinity });
      ("minimum nan", { fast_params with Sa_mapper.min_temperature = Float.nan });
      ("cooling nan", { fast_params with Sa_mapper.cooling = Float.nan });
    ]

(* --- Dvs ------------------------------------------------------------------ *)

let baseline_schedule bench =
  let graph = Benchmarks.load bench in
  List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 4)
    ~policy:Policy.Baseline ()

let test_dvs_levels_ladder () =
  (match Dvs.default_levels with
  | fastest :: _ ->
      Alcotest.(check (float 1e-9)) "full speed first" 1.0 fastest.Dvs.scale
  | [] -> Alcotest.fail "no levels");
  List.iter
    (fun (l : Dvs.level) ->
      Alcotest.(check bool) "power factor ~ scale^3" true
        (Float.abs (l.Dvs.power_factor -. (l.Dvs.scale ** 3.0)) < 1e-9))
    Dvs.default_levels

let test_dvs_plan_safe () =
  let s = baseline_schedule 0 in
  let plan = Dvs.reclaim ~lib:platform_lib s in
  Alcotest.(check int) "plan safe" 0 (List.length (Dvs.validate plan ~lib:platform_lib))

let test_dvs_saves_energy_with_slack () =
  (* Bm1 baseline finishes at ~538 of 790: plenty of slack to reclaim. *)
  let s = baseline_schedule 0 in
  let plan = Dvs.reclaim ~lib:platform_lib s in
  let saving = Dvs.energy_saving_ratio plan in
  Alcotest.(check bool)
    (Printf.sprintf "saving %.1f%%" (100.0 *. saving))
    true (saving > 0.05);
  Alcotest.(check bool) "bounded" true (saving < 1.0)

let test_dvs_cools () =
  let s = baseline_schedule 0 in
  let hotspot = platform_hotspot 4 in
  let plan = Dvs.reclaim ~lib:platform_lib s in
  let before = (Metrics.thermal_report s ~hotspot).Metrics.max_temp in
  let after = (Dvs.thermal_report plan ~hotspot).Metrics.max_temp in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f -> %.2f" before after)
    true (after < before)

let test_dvs_single_level_is_identity () =
  let s = baseline_schedule 1 in
  let plan =
    Dvs.reclaim ~levels:[ List.hd Dvs.default_levels ] ~lib:platform_lib s
  in
  Alcotest.(check (float 1e-9)) "no energy change" 0.0 (Dvs.energy_saving_ratio plan);
  Array.iteri
    (fun task f ->
      Alcotest.(check (float 1e-6)) "finish unchanged"
        s.Schedule.entries.(task).Schedule.finish f)
    plan.Dvs.finish

let test_dvs_plan_respects_deadline () =
  List.iter
    (fun bench ->
      let s = baseline_schedule bench in
      let plan = Dvs.reclaim ~lib:platform_lib s in
      Alcotest.(check bool) "within deadline" true
        (plan.Dvs.makespan <= Graph.deadline s.Schedule.graph +. 1e-6))
    [ 0; 1; 2; 3 ]

let test_dvs_requires_full_speed_level () =
  let s = baseline_schedule 0 in
  Alcotest.(check bool) "ladder without full speed rejected" true
    (try
       ignore
         (Dvs.reclaim
            ~levels:[ Dvs.make_level ~name:"half" ~scale:0.5 ~power_factor:0.125 ]
            ~lib:platform_lib s
          : Dvs.plan);
       false
     with Invalid_argument _ -> true)

(* --- Empty PE arrays ------------------------------------------------------- *)

let test_empty_pes_rejected () =
  let graph = Benchmarks.load 0 and lib = platform_lib and pes = [||] in
  let entry_points =
    [
      ("List_sched.run", fun () ->
          ignore (List_sched.run ~graph ~lib ~pes ~policy:Policy.Baseline ()
                  : Schedule.t));
      ("List_sched.run_adaptive", fun () ->
          ignore (List_sched.run_adaptive ~graph ~lib ~pes
                    ~policy:Policy.Baseline ()
                  : Schedule.t * Policy.weights));
      ("Online.run", fun () ->
          ignore (Online.run ~arrivals:(Online.zero graph) ~graph ~lib ~pes
                    ~policy:(Online.Mirror Policy.Baseline) ()
                  : Online.run));
      ("Heft.run", fun () -> ignore (Heft.run ~graph ~lib ~pes () : Schedule.t));
    ]
  in
  List.iter
    (fun (name, f) ->
      match f () with
      | () -> Alcotest.failf "%s accepted an empty PE array" name
      | exception Invalid_argument msg ->
          if not (String.ends_with ~suffix:": empty PE array" msg) then
            Alcotest.failf "%s: unexpected message %S" name msg)
    entry_points

(* --- Transient replay metrics --------------------------------------------- *)

let test_power_profile_levels () =
  let s = baseline_schedule 0 in
  (* Before time 0 nothing runs: idle only. *)
  let idle = Metrics.power_profile s ~lib:platform_lib ~time:(-1.0) in
  Array.iter
    (fun p -> Alcotest.(check (float 1e-9)) "idle floor" 0.6 p)
    idle;
  (* Mid-schedule, total power must be at least idle and at most
     idle + 4 * max wcpc. *)
  let mid = Metrics.power_profile s ~lib:platform_lib ~time:(s.Schedule.makespan /. 2.0) in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "bounded" true
        (p >= 0.6 -. 1e-9 && p <= 0.6 +. Library.max_wcpc platform_lib +. 1e-9))
    mid

let test_transient_peak_brackets_steady () =
  let s = baseline_schedule 0 in
  let hotspot = platform_hotspot 4 in
  let steady = (Metrics.thermal_report ~leakage:false s ~hotspot).Metrics.block_temps in
  (* The sink time constant (~70 s) needs hundreds of sub-second periods of
     warm-up before the trace rides its steady level. *)
  let peaks =
    Metrics.transient_peak s ~lib:platform_lib ~hotspot ~periods:600
      ~dt:(s.Schedule.makespan *. 1e-3 /. 40.0) ()
  in
  Array.iteri
    (fun pe p ->
      (* Transient peak rides above the average-power steady estimate but
         within the instantaneous-power bound. *)
      Alcotest.(check bool)
        (Printf.sprintf "PE%d: %.1f vs steady %.1f" pe p steady.(pe))
        true
        (p > steady.(pe) -. 2.0 && p < steady.(pe) +. 40.0))
    peaks

(* --- List_sched.run_adaptive boundary cases -------------------------------- *)

(* Rebuild a graph identical to [graph] except for its deadline. *)
let with_deadline graph deadline =
  let b = Graph.builder ~name:(Graph.name graph) ~deadline in
  Array.iter
    (fun (t : Tats_taskgraph.Task.t) ->
      ignore (Graph.add_task b ~task_type:t.task_type () : Tats_taskgraph.Task.id))
    (Graph.tasks graph);
  List.iter
    (fun (e : Graph.edge) -> Graph.add_edge b ~data:e.Graph.data e.Graph.src e.Graph.dst)
    (Graph.edges graph);
  Graph.build b

let adaptive ?base_weights ?max_multiplier ~policy graph =
  let hotspot = platform_hotspot 4 in
  List_sched.run_adaptive ?base_weights ?max_multiplier ~hotspot ~graph
    ~lib:platform_lib ~pes:(platform_pes 4) ~policy ()

let test_adaptive_ceiling_shortcut () =
  (* With a hopelessly loose deadline the full-strength attempt is already
     feasible, and the bisection must be skipped entirely: the returned
     weight is exactly base * max_multiplier. *)
  let graph = with_deadline (Benchmarks.load 0) 1e7 in
  let base = Policy.default_weights ~deadline:(Graph.deadline graph) in
  let s, w = adaptive ~policy:Policy.Thermal_aware graph in
  Alcotest.(check bool) "feasible" true (Schedule.meets_deadline s);
  Alcotest.(check (float 1e-9)) "weight at ceiling"
    (base.Policy.cost_weight *. 400.0)
    w.Policy.cost_weight

let test_adaptive_infeasible_floor () =
  (* A deadline below the best possible makespan: even the pure-performance
     schedule (weight 0) misses, and the adaptive search must report that
     schedule with a zero weight rather than loop or lie. *)
  let graph = with_deadline (Benchmarks.load 0) 1.0 in
  let s, w = adaptive ~policy:Policy.Thermal_aware graph in
  Alcotest.(check bool) "infeasible" true (not (Schedule.meets_deadline s));
  Alcotest.(check (float 0.0)) "weight collapsed to zero" 0.0 w.Policy.cost_weight;
  let baseline =
    List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 4)
      ~policy:Policy.Baseline ()
  in
  Alcotest.(check (float 1e-9)) "floor = baseline makespan"
    baseline.Schedule.makespan s.Schedule.makespan

let test_adaptive_bisection_converges () =
  (* Pin the deadline between the floor and full-weight makespans so the
     bisection has real work to do; it must land on a feasible weight
     strictly inside (0, max). *)
  let graph0 = Benchmarks.load 0 in
  let floor_s, _ =
    adaptive ~base_weights:{ Policy.cost_weight = 0.0 }
      ~policy:Policy.Thermal_aware graph0
  in
  let m0 = floor_s.Schedule.makespan in
  let base = Policy.default_weights ~deadline:(Graph.deadline graph0) in
  let full =
    List_sched.run
      ~weights:{ Policy.cost_weight = base.Policy.cost_weight *. 400.0 }
      ~hotspot:(platform_hotspot 4) ~graph:graph0 ~lib:platform_lib
      ~pes:(platform_pes 4) ~policy:Policy.Thermal_aware ()
  in
  let m400 = full.Schedule.makespan in
  Alcotest.(check bool) "weights stretch the schedule" true (m400 > m0 +. 1e-6);
  let graph = with_deadline graph0 ((m0 +. m400) /. 2.0) in
  let s, w = adaptive ~policy:Policy.Thermal_aware graph in
  let base = Policy.default_weights ~deadline:(Graph.deadline graph) in
  Alcotest.(check bool) "meets pinned deadline" true (Schedule.meets_deadline s);
  Alcotest.(check bool) "weight strictly positive" true (w.Policy.cost_weight > 0.0);
  Alcotest.(check bool) "weight below ceiling" true
    (w.Policy.cost_weight < base.Policy.cost_weight *. 400.0)

(* --- random-graph properties for the extension schedulers ------------------- *)

let random_graph seed tasks =
  let lo, hi = Generator.feasible_edges ~n_tasks:tasks in
  let edges = lo + ((seed * 7) mod (Stdlib.max 1 (hi - lo + 1))) in
  Generator.generate ~seed ~name:"q"
    {
      Generator.default_spec with
      Generator.n_tasks = tasks;
      n_edges = edges;
      n_task_types = Benchmarks.n_task_types;
    }

let prop_heft_valid_on_random_graphs =
  QCheck.Test.make ~name:"HEFT schedules random graphs validly" ~count:40
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, tasks) ->
      let graph = random_graph seed tasks in
      let s = Heft.run ~graph ~lib:platform_lib ~pes:(platform_pes 3) () in
      Schedule.validate ~lib:platform_lib s = [])

let prop_dvs_safe_on_random_graphs =
  QCheck.Test.make ~name:"DVS plans on random graphs are safe and save energy"
    ~count:40
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, tasks) ->
      let graph = random_graph seed tasks in
      let s =
        List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 3)
          ~policy:Policy.Baseline ()
      in
      let plan = Dvs.reclaim ~lib:platform_lib s in
      Dvs.validate plan ~lib:platform_lib = []
      && Dvs.energy_saving_ratio plan >= -1e-9)

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
  Runner.run "sched_extensions"
    [
      ( "heft",
        [
          Alcotest.test_case "valid on benchmarks" `Quick test_heft_valid_on_benchmarks;
          Alcotest.test_case "valid heterogeneous" `Quick test_heft_valid_heterogeneous;
          Alcotest.test_case "competitive with ASP" `Quick test_heft_competitive_with_asp;
          Alcotest.test_case "rank = static criticality" `Quick
            test_heft_rank_matches_static_criticality;
          Alcotest.test_case "deterministic" `Quick test_heft_uses_insertion;
        ] );
      ( "sa_mapper",
        [
          Alcotest.test_case "decode valid" `Quick test_sa_mapper_decode_valid;
          Alcotest.test_case "decode validation" `Quick test_sa_mapper_decode_validation;
          Alcotest.test_case "no worse than baseline" `Quick
            test_sa_mapper_no_worse_than_baseline;
          Alcotest.test_case "thermal objective" `Quick test_sa_mapper_thermal_objective;
          Alcotest.test_case "deterministic" `Quick test_sa_mapper_deterministic;
          Alcotest.test_case "non-finite params rejected" `Quick
            test_sa_mapper_rejects_non_finite_params;
        ] );
      ( "dvs",
        [
          Alcotest.test_case "level ladder" `Quick test_dvs_levels_ladder;
          Alcotest.test_case "plan safe" `Quick test_dvs_plan_safe;
          Alcotest.test_case "saves energy" `Quick test_dvs_saves_energy_with_slack;
          Alcotest.test_case "cools" `Quick test_dvs_cools;
          Alcotest.test_case "single level identity" `Quick
            test_dvs_single_level_is_identity;
          Alcotest.test_case "respects deadline" `Quick test_dvs_plan_respects_deadline;
          Alcotest.test_case "needs full speed" `Quick test_dvs_requires_full_speed_level;
        ] );
      ( "entry points",
        [
          Alcotest.test_case "empty PE array rejected" `Quick
            test_empty_pes_rejected;
        ] );
      ( "run_adaptive",
        [
          Alcotest.test_case "ceiling shortcut" `Quick test_adaptive_ceiling_shortcut;
          Alcotest.test_case "infeasible floor" `Quick test_adaptive_infeasible_floor;
          Alcotest.test_case "bisection converges" `Quick
            test_adaptive_bisection_converges;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heft_valid_on_random_graphs; prop_dvs_safe_on_random_graphs;
            prop_lower_bound_holds_on_random_graphs;
          ] );
      ( "transient_metrics",
        [
          Alcotest.test_case "power profile" `Quick test_power_profile_levels;
          Alcotest.test_case "transient peak" `Quick test_transient_peak_brackets_steady;
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
    ]
