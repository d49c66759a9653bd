(* Tests for Tats_cosynth: the allocation search and the Figure-1 flows. *)

module Graph = Tats_taskgraph.Graph
module Benchmarks = Tats_taskgraph.Benchmarks
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Catalog = Tats_techlib.Catalog
module Placement = Tats_floorplan.Placement
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Metrics = Tats_sched.Metrics
module Alloc = Tats_cosynth.Alloc
module Flow = Tats_cosynth.Flow

let hetero = Catalog.default_library ()
let platform = Catalog.platform_library ()

(* --- Alloc -------------------------------------------------------------- *)

let test_alloc_feasible_on_benchmarks () =
  Array.iteri
    (fun i _ ->
      let graph = Benchmarks.load i in
      let a = Alloc.run ~graph ~lib:hetero () in
      Alcotest.(check bool) (Graph.name graph ^ " feasible") true a.Alloc.feasible;
      Alcotest.(check bool) "ran trial schedules" true (a.Alloc.asp_runs > 0))
    Benchmarks.descriptors

let test_alloc_cost_is_sum_of_kinds () =
  let graph = Benchmarks.load 0 in
  let a = Alloc.run ~graph ~lib:hetero () in
  let expect =
    Array.fold_left (fun acc (i : Pe.inst) -> acc +. i.Pe.kind.Pe.cost) 0.0 a.Alloc.insts
  in
  Alcotest.(check (float 1e-9)) "cost" expect a.Alloc.total_cost

let test_alloc_respects_min_pes () =
  let graph = Benchmarks.load 0 in
  let a = Alloc.run ~min_pes:4 ~graph ~lib:hetero () in
  Alcotest.(check bool) "at least 4" true (Array.length a.Alloc.insts >= 4)

let test_alloc_respects_max_pes () =
  let graph = Benchmarks.load 3 in
  let a = Alloc.run ~max_pes:2 ~graph ~lib:hetero () in
  Alcotest.(check bool) "at most 2" true (Array.length a.Alloc.insts <= 2)

let test_alloc_infeasible_reported () =
  (* Bm4 with a single PE from a library of one slow kind cannot meet the
     deadline. *)
  let slow =
    Library.generate ~seed:1 ~n_task_types:Benchmarks.n_task_types
      ~kinds:
        [ Pe.make_kind ~kind_id:0 ~name:"slow" ~area:1e-5 ~cost:10.0 ~speed:0.05
            ~power_scale:1.0 ~idle_power:0.1 () ]
      ()
  in
  let graph = Benchmarks.load 3 in
  let a = Alloc.run ~max_pes:2 ~graph ~lib:slow () in
  Alcotest.(check bool) "infeasible" false a.Alloc.feasible

let test_alloc_deterministic () =
  let graph = Benchmarks.load 1 in
  let a = Alloc.run ~graph ~lib:hetero () in
  let b = Alloc.run ~graph ~lib:hetero () in
  Alcotest.(check int) "same size" (Array.length a.Alloc.insts) (Array.length b.Alloc.insts);
  Alcotest.(check (float 0.0)) "same cost" a.Alloc.total_cost b.Alloc.total_cost

let test_alloc_rejects_thermal_policy () =
  let graph = Benchmarks.load 0 in
  Alcotest.(check bool) "thermal rejected" true
    (try ignore (Alloc.run ~policy:Policy.Thermal_aware ~graph ~lib:hetero () : Alloc.t);
       false
     with Invalid_argument _ -> true)

let test_alloc_bad_bounds () =
  let graph = Benchmarks.load 0 in
  Alcotest.(check bool) "min > max" true
    (try ignore (Alloc.run ~min_pes:5 ~max_pes:2 ~graph ~lib:hetero () : Alloc.t); false
     with Invalid_argument _ -> true)

(* Continuing a search from its result equals running it from scratch with
   the higher floor, trial count included; the cases cover the flow's
   headroom step (one PE past feasibility) and a continuation that must
   grow past the floor again (Bm4 from one PE of a slow library). *)
let test_alloc_continues_from_result () =
  let slow =
    Library.generate ~seed:1 ~n_task_types:Benchmarks.n_task_types
      ~kinds:
        [ Pe.make_kind ~kind_id:0 ~name:"slow" ~area:1e-5 ~cost:10.0 ~speed:0.05
            ~power_scale:1.0 ~idle_power:0.1 () ]
      ()
  in
  let cases =
    List.map (fun i -> (Benchmarks.load i, hetero, None, 1)) [ 0; 1; 2; 3 ]
    @ [ (Benchmarks.load 3, slow, Some 1, 1); (Benchmarks.load 2, hetero, None, 2) ]
  in
  List.iter
    (fun (graph, lib, first_max, extra) ->
      let first = Alloc.run ?max_pes:first_max ~graph ~lib () in
      let k = Array.length first.Alloc.insts in
      let min_pes = k + extra in
      let what = Printf.sprintf "%s from %d PEs, min_pes %d" (Graph.name graph) k min_pes in
      let scratch = Alloc.run ~min_pes ~graph ~lib () in
      let continued = Alloc.run ~min_pes ~from:first ~graph ~lib () in
      let kind_ids (a : Alloc.t) =
        Array.to_list (Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.kind_id) a.Alloc.insts)
      in
      Alcotest.(check (list int)) (what ^ ": insts") (kind_ids scratch) (kind_ids continued);
      Alcotest.(check (float 0.0)) (what ^ ": total_cost") scratch.Alloc.total_cost
        continued.Alloc.total_cost;
      Alcotest.(check bool) (what ^ ": feasible") scratch.Alloc.feasible
        continued.Alloc.feasible;
      Alcotest.(check int) (what ^ ": asp_runs") scratch.Alloc.asp_runs
        continued.Alloc.asp_runs;
      Alcotest.(check bool) (what ^ ": new trials only") true
        (continued.Alloc.asp_runs > first.Alloc.asp_runs))
    cases;
  let graph = Benchmarks.load 0 in
  let first = Alloc.run ~graph ~lib:hetero () in
  Alcotest.(check bool) "a floor at or below ~from's size is rejected" true
    (try
       ignore
         (Alloc.run ~min_pes:(Array.length first.Alloc.insts) ~from:first ~graph
            ~lib:hetero ()
           : Alloc.t);
       false
     with Invalid_argument _ -> true)

let test_instances_of_kinds () =
  let insts = Alloc.instances_of_kinds hetero [ 0; 2; 2 ] in
  Alcotest.(check int) "three" 3 (Array.length insts);
  Alcotest.(check string) "kind name" "hp-core" insts.(1).Pe.kind.Pe.kind_name

(* --- Platform flow ------------------------------------------------------ *)

let test_platform_flow_stages () =
  let graph = Benchmarks.load 0 in
  let o = Flow.run_platform ~graph ~lib:platform ~policy:Policy.Thermal_aware () in
  let stages = List.map (fun (e : Flow.log_entry) -> e.Flow.stage) o.Flow.log in
  Alcotest.(check (list string))
    "figure 1(b) order"
    [ "allocation"; "floorplanning"; "scheduling"; "thermal-extraction" ]
    (List.map Flow.stage_name stages)

let test_platform_flow_schedule_valid () =
  List.iter
    (fun policy ->
      let graph = Benchmarks.load 0 in
      let o = Flow.run_platform ~graph ~lib:platform ~policy () in
      Alcotest.(check int)
        (Policy.name policy ^ " valid")
        0
        (List.length (Schedule.validate ~lib:platform o.Flow.schedule)))
    Policy.all

let test_platform_flow_meets_deadline () =
  List.iter
    (fun policy ->
      let graph = Benchmarks.load 0 in
      let o = Flow.run_platform ~graph ~lib:platform ~policy () in
      Alcotest.(check bool)
        (Policy.name policy ^ " deadline")
        true
        (Schedule.meets_deadline o.Flow.schedule))
    Policy.all

let test_platform_flow_row_sane () =
  let graph = Benchmarks.load 0 in
  let o = Flow.run_platform ~graph ~lib:platform ~policy:Policy.Baseline () in
  Alcotest.(check bool) "power positive" true (o.Flow.row.Metrics.total_power > 0.0);
  Alcotest.(check bool) "max >= avg" true
    (o.Flow.row.Metrics.max_temp >= o.Flow.row.Metrics.avg_temp);
  Alcotest.(check bool) "above ambient" true (o.Flow.row.Metrics.avg_temp > 45.0)

let test_platform_flow_rejects_multikind_library () =
  let graph = Benchmarks.load 0 in
  Alcotest.(check bool) "multi-kind rejected" true
    (try
       ignore (Flow.run_platform ~graph ~lib:hetero ~policy:Policy.Baseline ()
               : Flow.outcome);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero PEs rejected" true
    (try
       ignore
         (Flow.run_platform ~n_pes:0 ~graph ~lib:platform
            ~policy:Policy.Baseline ()
           : Flow.outcome);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero online PEs rejected" true
    (try
       ignore
         (Flow.run_online ~n_pes:0 ~arrivals:Flow.Release_zero ~graph
            ~lib:platform
            ~policy:(Tats_sched.Online.Mirror Policy.Baseline) ()
           : Flow.online_outcome);
       false
     with Invalid_argument _ -> true)

let test_platform_flow_pe_count () =
  let graph = Benchmarks.load 0 in
  let o = Flow.run_platform ~n_pes:6 ~graph ~lib:platform ~policy:Policy.Baseline () in
  Alcotest.(check int) "six PEs" 6 (Schedule.n_pes o.Flow.schedule);
  Alcotest.(check int) "six blocks" 6 (Array.length o.Flow.placement.Placement.rects)

(* --- Co-synthesis flow -------------------------------------------------- *)

let test_cosynth_flow_meets_deadline_all_policies () =
  List.iter
    (fun policy ->
      let graph = Benchmarks.load 0 in
      let o = Flow.run_cosynthesis ~graph ~lib:hetero ~policy () in
      Alcotest.(check bool)
        (Policy.name policy ^ " deadline")
        true
        (Schedule.meets_deadline o.Flow.schedule);
      Alcotest.(check int)
        (Policy.name policy ^ " valid")
        0
        (List.length (Schedule.validate ~lib:hetero o.Flow.schedule)))
    Policy.all

let test_cosynth_floorplan_overlap_free () =
  let graph = Benchmarks.load 1 in
  let o = Flow.run_cosynthesis ~graph ~lib:hetero ~policy:Policy.Thermal_aware () in
  Alcotest.(check bool) "no overlap" false (Placement.has_overlap o.Flow.placement)

let test_cosynth_thermal_headroom () =
  (* The thermal flow allocates at least as many PEs as the baseline flow
     (one extra unless already at the cap). *)
  let graph = Benchmarks.load 0 in
  let base = Flow.run_cosynthesis ~graph ~lib:hetero ~policy:Policy.Baseline () in
  let thermal = Flow.run_cosynthesis ~graph ~lib:hetero ~policy:Policy.Thermal_aware () in
  Alcotest.(check bool) "headroom" true
    (Schedule.n_pes thermal.Flow.schedule > Schedule.n_pes base.Flow.schedule)

let test_cosynth_thermal_cooler_than_power () =
  let graph = Benchmarks.load 1 in
  let power =
    Flow.run_cosynthesis ~graph ~lib:hetero
      ~policy:(Policy.Power_aware Policy.Min_task_energy) ()
  in
  let thermal = Flow.run_cosynthesis ~graph ~lib:hetero ~policy:Policy.Thermal_aware () in
  Alcotest.(check bool) "cooler max" true
    (thermal.Flow.row.Metrics.max_temp < power.Flow.row.Metrics.max_temp)

let test_cosynth_deterministic () =
  let graph = Benchmarks.load 0 in
  let a = Flow.run_cosynthesis ~graph ~lib:hetero ~policy:Policy.Baseline () in
  let b = Flow.run_cosynthesis ~graph ~lib:hetero ~policy:Policy.Baseline () in
  Alcotest.(check (float 0.0)) "same max temp" a.Flow.row.Metrics.max_temp
    b.Flow.row.Metrics.max_temp;
  Alcotest.(check (float 0.0)) "same cost" a.Flow.arch_cost b.Flow.arch_cost

let test_cosynth_refinement_rounds () =
  let graph = Benchmarks.load 0 in
  let one = Flow.run_cosynthesis ~refine_rounds:1 ~graph ~lib:hetero
      ~policy:Policy.Thermal_aware () in
  let two = Flow.run_cosynthesis ~refine_rounds:2 ~graph ~lib:hetero
      ~policy:Policy.Thermal_aware () in
  (* Each refinement round logs one floorplanning and one scheduling stage. *)
  let count stage o =
    List.length
      (List.filter (fun (e : Flow.log_entry) -> e.Flow.stage = stage) o.Flow.log)
  in
  Alcotest.(check int) "extra floorplan round"
    (count Flow.Floorplanning one + 1)
    (count Flow.Floorplanning two);
  Alcotest.(check bool) "still meets deadline" true
    (Schedule.meets_deadline two.Flow.schedule);
  Alcotest.(check bool) "refinement not hotter" true
    (two.Flow.row.Metrics.max_temp <= one.Flow.row.Metrics.max_temp +. 3.0)

let test_cosynth_hotspot_inquiries_counted () =
  let graph = Benchmarks.load 0 in
  let o = Flow.run_cosynthesis ~graph ~lib:hetero ~policy:Policy.Thermal_aware () in
  Alcotest.(check bool) "thermal policy issued inquiries" true
    (Tats_thermal.Hotspot.inquiries o.Flow.hotspot > 0)

let test_floorplan_cost_components () =
  let blocks = [| Tats_floorplan.Block.make ~name:"a" ~area:1e-6 () |] in
  let p = Tats_floorplan.Grid.layout blocks in
  let plain = Flow.floorplan_cost ~blocks_area:1e-6 p in
  let with_thermal = Flow.floorplan_cost ~thermal:(fun _ -> 2.5) ~blocks_area:1e-6 p in
  Alcotest.(check (float 1e-9)) "thermal term added" 2.5 (with_thermal -. plain);
  (* One square block fills its die exactly: area term is 1, wirelength 0. *)
  Alcotest.(check (float 1e-6)) "area term" 1.0 plain

(* --- Pareto exploration --------------------------------------------------- *)

let test_min_pes_forces_architecture () =
  let graph = Benchmarks.load 0 in
  let o =
    Flow.run_cosynthesis ~min_pes:5 ~graph ~lib:hetero ~policy:Policy.Baseline ()
  in
  Alcotest.(check bool) "at least five PEs" true (Schedule.n_pes o.Flow.schedule >= 5)

let test_pareto_explore_points () =
  let graph = Benchmarks.load 0 in
  let points =
    Tats_cosynth.Pareto.explore
      ~policies:[ Policy.Baseline ]
      ~min_pes_range:[ 1; 3 ] ~graph ~lib:hetero ()
  in
  Alcotest.(check int) "one point per (policy, min)" 2 (List.length points);
  List.iter
    (fun (p : Tats_cosynth.Pareto.point) ->
      Alcotest.(check bool) "cost positive" true (p.Tats_cosynth.Pareto.arch_cost > 0.0))
    points

let test_pareto_frontier_non_dominated () =
  let mk label cost temp met =
    {
      Tats_cosynth.Pareto.label;
      arch_cost = cost;
      n_pes = 2;
      meets_deadline = met;
      row = { Metrics.total_power = 1.0; max_temp = temp; avg_temp = temp };
    }
  in
  let points =
    [
      mk "cheap-hot" 100.0 120.0 true;
      mk "dear-cool" 300.0 90.0 true;
      mk "dominated" 300.0 121.0 true;
      mk "missed" 50.0 60.0 false;
      mk "dup" 100.0 120.0 true;
    ]
  in
  let f = Tats_cosynth.Pareto.frontier points in
  let labels = List.map (fun p -> p.Tats_cosynth.Pareto.label) f in
  Alcotest.(check (list string)) "frontier" [ "cheap-hot"; "dear-cool" ] labels

let test_pareto_frontier_dedups_triples () =
  let mk label =
    {
      Tats_cosynth.Pareto.label;
      arch_cost = 10.0;
      n_pes = 1;
      meets_deadline = true;
      row = { Metrics.total_power = 1.0; max_temp = 50.0; avg_temp = 50.0 };
    }
  in
  let f = Tats_cosynth.Pareto.frontier [ mk "a"; mk "b"; mk "c" ] in
  Alcotest.(check int) "one survivor" 1 (List.length f)

let () =
  Runner.run "tats_cosynth"
    [
      ( "alloc",
        [
          Alcotest.test_case "feasible on benchmarks" `Quick
            test_alloc_feasible_on_benchmarks;
          Alcotest.test_case "cost sum" `Quick test_alloc_cost_is_sum_of_kinds;
          Alcotest.test_case "min pes" `Quick test_alloc_respects_min_pes;
          Alcotest.test_case "max pes" `Quick test_alloc_respects_max_pes;
          Alcotest.test_case "infeasible reported" `Quick test_alloc_infeasible_reported;
          Alcotest.test_case "deterministic" `Quick test_alloc_deterministic;
          Alcotest.test_case "thermal rejected" `Quick test_alloc_rejects_thermal_policy;
          Alcotest.test_case "bad bounds" `Quick test_alloc_bad_bounds;
          Alcotest.test_case "instances_of_kinds" `Quick test_instances_of_kinds;
          Alcotest.test_case "continues from a result" `Quick
            test_alloc_continues_from_result;
        ] );
      ( "platform_flow",
        [
          Alcotest.test_case "stage trace" `Quick test_platform_flow_stages;
          Alcotest.test_case "schedules valid" `Quick test_platform_flow_schedule_valid;
          Alcotest.test_case "meets deadline" `Quick test_platform_flow_meets_deadline;
          Alcotest.test_case "row sanity" `Quick test_platform_flow_row_sane;
          Alcotest.test_case "library shape enforced" `Quick
            test_platform_flow_rejects_multikind_library;
          Alcotest.test_case "pe count" `Quick test_platform_flow_pe_count;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "min_pes forces arch" `Quick
            test_min_pes_forces_architecture;
          Alcotest.test_case "explore points" `Quick test_pareto_explore_points;
          Alcotest.test_case "frontier non-dominated" `Quick
            test_pareto_frontier_non_dominated;
          Alcotest.test_case "frontier dedup" `Quick test_pareto_frontier_dedups_triples;
        ] );
      ( "cosynth_flow",
        [
          Alcotest.test_case "deadline + validity" `Quick
            test_cosynth_flow_meets_deadline_all_policies;
          Alcotest.test_case "floorplan overlap-free" `Quick
            test_cosynth_floorplan_overlap_free;
          Alcotest.test_case "thermal headroom" `Quick test_cosynth_thermal_headroom;
          Alcotest.test_case "thermal cooler than power" `Quick
            test_cosynth_thermal_cooler_than_power;
          Alcotest.test_case "deterministic" `Quick test_cosynth_deterministic;
          Alcotest.test_case "inquiries counted" `Quick
            test_cosynth_hotspot_inquiries_counted;
          Alcotest.test_case "refinement rounds" `Quick test_cosynth_refinement_rounds;
          Alcotest.test_case "floorplan cost" `Quick test_floorplan_cost_components;
        ] );
    ]
