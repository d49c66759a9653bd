(* Tests for Tats_sched: policies, schedules and their validation, DC cost
   terms, the list-scheduling ASP, adaptive weights, metrics. *)

module Graph = Tats_taskgraph.Graph
module Benchmarks = Tats_taskgraph.Benchmarks
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Dc = Tats_sched.Dc
module List_sched = Tats_sched.List_sched
module Metrics = Tats_sched.Metrics
module Stats = Tats_util.Stats

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

(* A 4-task chain with one fork, easy to reason about. *)
let small_graph () =
  let b = Graph.builder ~name:"small" ~deadline:1000.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:1 () in
  let t2 = Graph.add_task b ~task_type:2 () in
  let t3 = Graph.add_task b ~task_type:3 () in
  Graph.add_edge b ~data:32.0 t0 t1;
  Graph.add_edge b ~data:32.0 t0 t2;
  Graph.add_edge b ~data:32.0 t1 t3;
  Graph.add_edge b ~data:32.0 t2 t3;
  Graph.build b

let run_platform ?weights ?hotspot ~policy graph =
  List_sched.run ?weights ?hotspot ~graph ~lib:platform_lib ~pes:(platform_pes 4)
    ~policy ()

(* --- Policy ------------------------------------------------------------- *)

let test_policy_names_roundtrip () =
  List.iter
    (fun p ->
      match Policy.of_name (Policy.name p) with
      | Some p' -> Alcotest.(check bool) "roundtrip" true (p = p')
      | None -> Alcotest.failf "name %s did not parse" (Policy.name p))
    Policy.all;
  Alcotest.(check bool) "unknown name" true (Policy.of_name "bogus" = None)

let test_policy_all_count () =
  Alcotest.(check int) "five policies" 5 (List.length Policy.all)

let test_default_weights () =
  let w = Policy.default_weights ~deadline:1000.0 in
  Alcotest.(check bool) "positive" true (w.Policy.cost_weight > 0.0);
  Alcotest.(check bool) "bad deadline" true
    (try ignore (Policy.default_weights ~deadline:0.0 : Policy.weights); false
     with Invalid_argument _ -> true)

(* --- Dc ----------------------------------------------------------------- *)

let test_dc_value_formula () =
  Alcotest.(check (float 1e-9)) "formula" (100.0 -. 10.0 -. 20.0 -. (2.0 *. 0.5))
    (Dc.value ~sc:100.0 ~wcet:10.0 ~start:20.0 ~cost:0.5 ~weight:2.0)

let test_dc_costs_normalized () =
  for tt = 0 to Library.n_task_types hetero_lib - 1 do
    for k = 0 to Array.length (Library.kinds hetero_lib) - 1 do
      let c1 = Dc.cost_task_power hetero_lib ~task_type:tt ~kind:k in
      let c3 = Dc.cost_task_energy hetero_lib ~task_type:tt ~kind:k in
      Alcotest.(check bool) "h1 in (0,1]" true (c1 > 0.0 && c1 <= 1.0);
      Alcotest.(check bool) "h3 in (0,1]" true (c3 > 0.0 && c3 <= 1.0)
    done
  done

let test_dc_pe_average_power () =
  (* 100 J on the PE plus 20 J of task, finishing at t=60: 2 W average. *)
  let lib =
    Library.of_tables
      ~kinds:
        [ Pe.make_kind ~kind_id:0 ~name:"k" ~area:1e-5 ~cost:1.0 ~speed:1.0
            ~power_scale:4.0 ~idle_power:0.0 () ]
      ~wcet:[| [| 10.0 |] |]
      ~wcpc:[| [| 4.0 |] |]
      ()
  in
  Alcotest.(check (float 1e-9)) "avg power / max wcpc" (2.0 /. 4.0)
    (Dc.cost_pe_average_power lib ~pe_energy:100.0 ~task_energy:20.0 ~finish:60.0)

let test_dc_temperature_cost () =
  Alcotest.(check (float 1e-9)) "scaled excursion" 0.3
    (Dc.cost_temperature ~ambient:45.0 ~avg_temp:75.0)

let test_static_criticality_decreases_downstream () =
  let g = small_graph () in
  let sc = Dc.static_criticality platform_lib g in
  Alcotest.(check bool) "source most critical" true (sc.(0) > sc.(1));
  Alcotest.(check bool) "sink least critical" true (sc.(3) < sc.(1))

(* --- Schedule validation ------------------------------------------------ *)

let test_valid_schedule_passes () =
  let g = small_graph () in
  let s = run_platform ~policy:Policy.Baseline g in
  Alcotest.(check int) "no violations" 0
    (List.length (Schedule.validate ~lib:platform_lib s))

let test_validate_detects_precedence_breach () =
  let g = small_graph () in
  let s = run_platform ~policy:Policy.Baseline g in
  (* Forge a schedule where task 3 starts at 0 (before its parents finish). *)
  let wcet3 =
    Library.wcet platform_lib
      ~task_type:(Graph.task g 3).Tats_taskgraph.Task.task_type ~kind:0
  in
  let entries =
    Array.map
      (fun (e : Schedule.entry) ->
        if e.Schedule.task = 3 then
          { e with Schedule.start = 0.0; finish = wcet3; pe = 3 }
        else e)
      s.Schedule.entries
  in
  let forged = Schedule.make ~graph:g ~pes:(platform_pes 4) ~entries in
  let violations = Schedule.validate ~lib:platform_lib forged in
  Alcotest.(check bool) "precedence caught" true
    (List.exists
       (function Schedule.Precedence _ -> true | _ -> false)
       violations)

let test_validate_detects_overlap () =
  let g = small_graph () in
  let s = run_platform ~policy:Policy.Baseline g in
  (* Push tasks 1 and 2 onto PE 0 at the same time. *)
  let entries =
    Array.map
      (fun (e : Schedule.entry) ->
        if e.Schedule.task = 1 || e.Schedule.task = 2 then { e with Schedule.pe = 0 }
        else e)
      s.Schedule.entries
  in
  (* Align their start times. *)
  let e1 = entries.(1) and e2 = entries.(2) in
  entries.(2) <-
    { e2 with Schedule.start = e1.Schedule.start;
      finish = e1.Schedule.start +. (e2.Schedule.finish -. e2.Schedule.start) };
  let forged = Schedule.make ~graph:g ~pes:(platform_pes 4) ~entries in
  let violations = Schedule.validate ~lib:platform_lib forged in
  Alcotest.(check bool) "overlap caught" true
    (List.exists (function Schedule.Pe_overlap _ -> true | _ -> false) violations)

(* Every comparison with NaN is false, so each check must be written to
   fail on it: a schedule whose times are all NaN is not valid. *)
let test_validate_detects_nan_times () =
  let g = Benchmarks.load 0 in
  let s = run_platform ~policy:Policy.Baseline g in
  let entries =
    Array.map
      (fun (e : Schedule.entry) ->
        { e with Schedule.start = Float.nan; finish = Float.nan })
      s.Schedule.entries
  in
  let forged = Schedule.make ~graph:g ~pes:(platform_pes 4) ~entries in
  let violations = Schedule.validate ~lib:platform_lib forged in
  Array.iter
    (fun (e : Schedule.entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d: NaN times caught" e.Schedule.task)
        true
        (List.mem (Schedule.Negative_time e.Schedule.task) violations))
    entries

(* An infinite start and finish pass every ordering check, but their
   difference is NaN, not the task's WCET: a schedule whose times are all
   infinite is not valid either. *)
let test_validate_detects_infinite_times () =
  let g = Benchmarks.load 0 in
  let s = run_platform ~policy:Policy.Baseline g in
  let entries =
    Array.map
      (fun (e : Schedule.entry) ->
        { e with Schedule.start = Float.infinity; finish = Float.infinity })
      s.Schedule.entries
  in
  let forged = Schedule.make ~graph:g ~pes:(platform_pes 4) ~entries in
  let violations = Schedule.validate ~lib:platform_lib forged in
  Array.iter
    (fun (e : Schedule.entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "task %d: infinite times caught" e.Schedule.task)
        true
        (List.mem (Schedule.Bad_duration e.Schedule.task) violations))
    entries

let test_validate_detects_bad_duration () =
  let g = small_graph () in
  let s = run_platform ~policy:Policy.Baseline g in
  let entries =
    Array.map
      (fun (e : Schedule.entry) ->
        if e.Schedule.task = 0 then { e with Schedule.finish = e.Schedule.finish +. 5.0 }
        else e)
      s.Schedule.entries
  in
  let forged = Schedule.make ~graph:g ~pes:(platform_pes 4) ~entries in
  Alcotest.(check bool) "duration caught" true
    (List.exists
       (function Schedule.Bad_duration 0 -> true | _ -> false)
       (Schedule.validate ~lib:platform_lib forged))

let test_schedule_make_validation () =
  let g = small_graph () in
  let s = run_platform ~policy:Policy.Baseline g in
  Alcotest.(check bool) "wrong count" true
    (try
       ignore
         (Schedule.make ~graph:g ~pes:(platform_pes 4)
            ~entries:(Array.sub s.Schedule.entries 0 2)
          : Schedule.t);
       false
     with Invalid_argument _ -> true)

(* --- List scheduler ----------------------------------------------------- *)

let all_benchmark_policy_pairs () =
  List.concat_map
    (fun bench ->
      List.map (fun policy -> (bench, policy)) Policy.all)
    [ 0; 1; 2; 3 ]

let test_all_policies_produce_valid_schedules () =
  List.iter
    (fun (bench, policy) ->
      let graph = Benchmarks.load bench in
      let hotspot = platform_hotspot 4 in
      let s =
        List_sched.run ~hotspot ~graph ~lib:platform_lib ~pes:(platform_pes 4) ~policy ()
      in
      let violations = Schedule.validate ~lib:platform_lib s in
      if violations <> [] then
        Alcotest.failf "%s/%s: %d violations" (Graph.name graph) (Policy.name policy)
          (List.length violations))
    (all_benchmark_policy_pairs ())

let test_scheduler_deterministic () =
  let graph = Benchmarks.load 1 in
  let s1 = run_platform ~policy:Policy.Baseline graph in
  let s2 = run_platform ~policy:Policy.Baseline graph in
  Alcotest.(check bool) "identical schedules" true
    (Array.for_all2
       (fun (a : Schedule.entry) (b : Schedule.entry) ->
         a.Schedule.pe = b.Schedule.pe && a.Schedule.start = b.Schedule.start)
       s1.Schedule.entries s2.Schedule.entries)

let test_thermal_requires_hotspot () =
  let graph = small_graph () in
  Alcotest.check_raises "missing hotspot" List_sched.Thermal_policy_needs_hotspot
    (fun () -> ignore (run_platform ~policy:Policy.Thermal_aware graph : Schedule.t))

let test_thermal_hotspot_size_checked () =
  let graph = small_graph () in
  Alcotest.(check bool) "wrong block count" true
    (try
       ignore
         (run_platform ~hotspot:(platform_hotspot 2) ~policy:Policy.Thermal_aware graph
          : Schedule.t);
       false
     with Invalid_argument _ -> true)

(* [scan]'s surcharge (the online reactive policy's migration pressure)
   must give every PE a finite entry: a NaN one makes every cost on its
   PE NaN, and no pick compares against NaN. *)
let test_scan_surcharge_checked () =
  let graph = small_graph () in
  let st =
    List_sched.init
      (List_sched.prepare ~graph ~lib:platform_lib ~pes:(platform_pes 2)
         ~policy:Policy.Baseline ())
  in
  let ready = List_sched.Ready.of_list (Graph.sources graph) in
  let rejected surcharge =
    try
      ignore (List_sched.scan ~surcharge st ~ready : List_sched.candidates);
      false
    with Invalid_argument _ -> true
  in
  List.iter
    (fun (what, surcharge) ->
      Alcotest.(check bool) what true (rejected surcharge))
    [
      ("nan", [| 0.0; Float.nan |]);
      ("inf", [| Float.infinity; 0.0 |]);
      ("-inf", [| 0.0; Float.neg_infinity |]);
      ("one entry short", [| 0.0 |]);
    ];
  (* Both PEs are alike, so without it the tie goes to PE 0. *)
  let choice =
    List_sched.pick ~caller:"test" st
      (List_sched.scan ~surcharge:[| 1.0; 0.0 |] st ~ready)
      ~weight:1.0
  in
  Alcotest.(check int) "a finite surcharge steers the pick" 1 choice.List_sched.pe

let test_single_pe_serializes () =
  let graph = small_graph () in
  let s =
    List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 1)
      ~policy:Policy.Baseline ()
  in
  Alcotest.(check int) "no violations" 0
    (List.length (Schedule.validate ~lib:platform_lib s));
  (* With one PE the makespan is at least the total work. *)
  let total_wcet =
    Array.fold_left
      (fun acc (e : Schedule.entry) -> acc +. (e.Schedule.finish -. e.Schedule.start))
      0.0 s.Schedule.entries
  in
  Alcotest.(check bool) "serialized" true (s.Schedule.makespan >= total_wcet -. 1e-6)

let test_heterogeneous_valid () =
  let graph = Benchmarks.load 0 in
  let pes = Pe.instances (Catalog.heterogeneous ()) in
  let s = List_sched.run ~graph ~lib:hetero_lib ~pes ~policy:Policy.Baseline () in
  Alcotest.(check int) "no violations" 0 (List.length (Schedule.validate ~lib:hetero_lib s))

let test_h1_prefers_low_power_pe () =
  (* Two kinds, same speed, very different power: with a strong weight H1
     must put everything on the low-power kind. *)
  let kinds =
    [ Pe.make_kind ~kind_id:0 ~name:"hot" ~area:1e-5 ~cost:1.0 ~speed:1.0
        ~power_scale:10.0 ~idle_power:0.0 ();
      Pe.make_kind ~kind_id:1 ~name:"cool" ~area:1e-5 ~cost:1.0 ~speed:1.0
        ~power_scale:1.0 ~idle_power:0.0 () ]
  in
  let lib = Library.generate ~seed:1 ~n_task_types:4 ~kinds () in
  let b = Graph.builder ~name:"chain" ~deadline:1e6 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:1 () in
  Graph.add_edge b t0 t1;
  let graph = Graph.build b in
  let pes = Pe.instances kinds in
  let s =
    List_sched.run
      ~weights:{ Policy.cost_weight = 1e5 }
      ~graph ~lib ~pes
      ~policy:(Policy.Power_aware Policy.Min_task_power)
      ()
  in
  Array.iter
    (fun (e : Schedule.entry) -> Alcotest.(check int) "on the cool PE" 1 e.Schedule.pe)
    s.Schedule.entries

let test_mesh_comm_schedules_validly () =
  (* The same library over a 2x2 mesh NoC: schedules stay valid and the
     extra hop latency can only lengthen the makespan. *)
  let mesh_lib =
    Library.generate ~seed:77
      ~n_task_types:Benchmarks.n_task_types
      ~kinds:[ Catalog.platform_kind () ]
      ~comm:(Tats_techlib.Comm.mesh ~cols:2 ~per_hop_delay:8.0 ())
      ()
  in
  List.iter
    (fun bench ->
      let graph = Benchmarks.load bench in
      let bus = List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 4)
          ~policy:Policy.Baseline () in
      let mesh = List_sched.run ~graph ~lib:mesh_lib ~pes:(platform_pes 4)
          ~policy:Policy.Baseline () in
      Alcotest.(check int) "valid on mesh" 0
        (List.length (Schedule.validate ~lib:mesh_lib mesh));
      Alcotest.(check bool) "mesh latency >= bus" true
        (mesh.Schedule.makespan >= bus.Schedule.makespan -. 1e-6))
    [ 0; 1 ]

let test_mesh_comm_energy_distance_dependent () =
  (* On a mesh, total comm energy depends on which PEs talk; verify the
     metric accounts hops by constructing a 2-task schedule across the
     diagonal vs adjacent PEs. *)
  let mesh_lib =
    Library.generate ~seed:77 ~n_task_types:4
      ~kinds:[ Catalog.platform_kind () ]
      ~comm:(Tats_techlib.Comm.mesh ~cols:2 ~per_hop_delay:1.0 ())
      ()
  in
  let b = Graph.builder ~name:"pair" ~deadline:1e6 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:1 () in
  Graph.add_edge b ~data:100.0 t0 t1;
  let graph = Graph.build b in
  let pes = platform_pes 4 in
  let forge src dst =
    let wcet t =
      Library.wcet mesh_lib
        ~task_type:(Graph.task graph t).Tats_taskgraph.Task.task_type ~kind:0
    in
    let delay =
      Tats_techlib.Comm.delay_between (Library.comm mesh_lib) ~src ~dst ~data:100.0
    in
    let e0 =
      { Schedule.task = 0; pe = src; start = 0.0; finish = wcet 0; energy = 1.0 }
    in
    let e1 =
      {
        Schedule.task = 1;
        pe = dst;
        start = wcet 0 +. delay;
        finish = wcet 0 +. delay +. wcet 1;
        energy = 1.0;
      }
    in
    Schedule.make ~graph ~pes ~entries:[| e0; e1 |]
  in
  let adjacent = Metrics.total_comm_energy (forge 0 1) ~lib:mesh_lib in
  let diagonal = Metrics.total_comm_energy (forge 0 3) ~lib:mesh_lib in
  Alcotest.(check bool) "diagonal costs twice" true
    (Float.abs (diagonal -. (2.0 *. adjacent)) < 1e-9)

(* Every policy schedules every benchmark validly on a 2x2 mesh, where
   cross-PE transfers also pay their hop latency. *)
let test_all_policies_valid_on_mesh () =
  let mesh_lib =
    Library.generate ~seed:77 ~n_task_types:Benchmarks.n_task_types
      ~kinds:[ Catalog.platform_kind () ]
      ~comm:(Tats_techlib.Comm.mesh ~cols:2 ~per_hop_delay:8.0 ())
      ()
  in
  List.iter
    (fun (bench, policy) ->
      let graph = Benchmarks.load bench in
      let s =
        List_sched.run ~hotspot:(platform_hotspot 4) ~graph ~lib:mesh_lib
          ~pes:(platform_pes 4) ~policy ()
      in
      let violations = Schedule.validate ~lib:mesh_lib s in
      if violations <> [] then
        Alcotest.failf "%s/%s: %d violations" (Graph.name graph) (Policy.name policy)
          (List.length violations))
    (all_benchmark_policy_pairs ())

(* A consumer that waits only for the bus transfer, not the hops, is a
   precedence breach on a mesh and fine on a bus. *)
let test_validate_catches_missing_hop_latency () =
  let comm = Tats_techlib.Comm.mesh ~cols:2 ~per_hop_delay:8.0 () in
  let mesh_lib =
    Library.generate ~seed:77 ~n_task_types:4 ~kinds:[ Catalog.platform_kind () ] ~comm ()
  in
  let bus_lib =
    Library.generate ~seed:77 ~n_task_types:4 ~kinds:[ Catalog.platform_kind () ] ()
  in
  let b = Graph.builder ~name:"pair" ~deadline:1e6 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:1 () in
  Graph.add_edge b ~data:100.0 t0 t1;
  let graph = Graph.build b in
  let wcet t =
    Library.wcet mesh_lib ~task_type:(Graph.task graph t).Tats_taskgraph.Task.task_type
      ~kind:0
  in
  let forge ~dst ~delay =
    let start = wcet 0 +. delay in
    Schedule.make ~graph ~pes:(platform_pes 4)
      ~entries:
        [|
          { Schedule.task = 0; pe = 0; start = 0.0; finish = wcet 0; energy = 1.0 };
          { Schedule.task = 1; pe = dst; start; finish = start +. wcet 1; energy = 1.0 };
        |]
  in
  let bus_delay = Tats_techlib.Comm.delay comm ~data:100.0 ~same_pe:false in
  let early = forge ~dst:3 ~delay:bus_delay in
  Alcotest.(check int) "valid on the bus" 0
    (List.length (Schedule.validate ~lib:bus_lib early));
  (match Schedule.validate ~lib:mesh_lib early with
  | [ Schedule.Precedence ({ Graph.src = 0; dst = 1; _ }, _) ] -> ()
  | v -> Alcotest.failf "expected one precedence breach, got %d violations" (List.length v));
  let on_time =
    forge ~dst:3 ~delay:(Tats_techlib.Comm.delay_between comm ~src:0 ~dst:3 ~data:100.0)
  in
  Alcotest.(check int) "valid with both hops" 0
    (List.length (Schedule.validate ~lib:mesh_lib on_time))

(* --- Adaptive weights --------------------------------------------------- *)

let test_adaptive_meets_deadline_when_possible () =
  let graph = Benchmarks.load 0 in
  let hotspot = platform_hotspot 4 in
  let s, w =
    List_sched.run_adaptive ~hotspot ~graph ~lib:platform_lib ~pes:(platform_pes 4)
      ~policy:Policy.Thermal_aware ()
  in
  Alcotest.(check bool) "meets deadline" true (Schedule.meets_deadline s);
  Alcotest.(check bool) "weight positive" true (w.Policy.cost_weight > 0.0)

let test_adaptive_cools_platform () =
  let graph = Benchmarks.load 0 in
  let hotspot = platform_hotspot 4 in
  let pes = platform_pes 4 in
  let base = List_sched.run ~graph ~lib:platform_lib ~pes ~policy:Policy.Baseline () in
  let thermal, _ =
    List_sched.run_adaptive ~hotspot ~graph ~lib:platform_lib ~pes
      ~policy:Policy.Thermal_aware ()
  in
  let t_base = Metrics.thermal_report base ~hotspot in
  let t_thermal = Metrics.thermal_report thermal ~hotspot in
  Alcotest.(check bool) "thermal cooler (max)" true
    (t_thermal.Metrics.max_temp < t_base.Metrics.max_temp)

let test_adaptive_power_capped_at_base () =
  let graph = Benchmarks.load 0 in
  let base_weights = Policy.default_weights ~deadline:(Graph.deadline graph) in
  let _, w =
    List_sched.run_adaptive ~base_weights ~max_multiplier:1.0 ~graph ~lib:platform_lib
      ~pes:(platform_pes 4)
      ~policy:(Policy.Power_aware Policy.Min_task_energy)
      ()
  in
  Alcotest.(check bool) "capped" true
    (w.Policy.cost_weight <= base_weights.Policy.cost_weight +. 1e-9)

let test_adaptive_infeasible_architecture () =
  (* A 1-PE platform cannot meet Bm1's deadline; run_adaptive must still
     return a complete (if late) schedule. *)
  let graph = Benchmarks.load 0 in
  let hotspot = platform_hotspot 1 in
  let s, _ =
    List_sched.run_adaptive ~hotspot ~graph ~lib:platform_lib ~pes:(platform_pes 1)
      ~policy:Policy.Thermal_aware ()
  in
  Alcotest.(check bool) "late but complete" true (not (Schedule.meets_deadline s));
  Alcotest.(check int) "valid" 0 (List.length (Schedule.validate ~lib:platform_lib s))

(* --- Metrics ------------------------------------------------------------ *)

let test_pe_energies_sum () =
  let graph = Benchmarks.load 0 in
  let s = run_platform ~policy:Policy.Baseline graph in
  Alcotest.(check (float 1e-6)) "partition of total"
    (Metrics.total_task_energy s)
    (Stats.sum (Metrics.pe_energies s))

let test_total_power_definition () =
  let graph = Benchmarks.load 0 in
  let s = run_platform ~policy:Policy.Baseline graph in
  let expected =
    (Metrics.total_task_energy s +. Metrics.total_comm_energy s ~lib:platform_lib)
    /. s.Schedule.makespan
  in
  Alcotest.(check (float 1e-9)) "energy / makespan" expected
    (Metrics.total_power s ~lib:platform_lib)

let test_utilizations_bounded () =
  let graph = Benchmarks.load 1 in
  let s = run_platform ~policy:Policy.Baseline graph in
  Array.iter
    (fun u -> Alcotest.(check bool) "in [0,1]" true (u >= 0.0 && u <= 1.0 +. 1e-9))
    (Metrics.utilizations s);
  let spread = Metrics.utilization_spread s in
  Alcotest.(check bool) "spread bounded" true (spread >= 0.0 && spread <= 1.0)

let test_thermal_report_consistency () =
  let graph = Benchmarks.load 0 in
  let hotspot = platform_hotspot 4 in
  let s = run_platform ~policy:Policy.Baseline graph in
  let r = Metrics.thermal_report s ~hotspot in
  Alcotest.(check (float 1e-9)) "max" (Stats.max r.Metrics.block_temps) r.Metrics.max_temp;
  Alcotest.(check (float 1e-9)) "avg" (Stats.mean r.Metrics.block_temps) r.Metrics.avg_temp;
  Alcotest.(check bool) "above ambient" true (r.Metrics.avg_temp > 45.0)

let test_leakage_flag_changes_report () =
  let graph = Benchmarks.load 0 in
  let hotspot = platform_hotspot 4 in
  let s = run_platform ~policy:Policy.Baseline graph in
  let on = Metrics.thermal_report ~leakage:true s ~hotspot in
  let off = Metrics.thermal_report ~leakage:false s ~hotspot in
  Alcotest.(check bool) "leakage hotter" true (on.Metrics.max_temp > off.Metrics.max_temp)

let test_comm_energy_zero_on_single_pe () =
  let graph = small_graph () in
  let s =
    List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 1)
      ~policy:Policy.Baseline ()
  in
  Alcotest.(check (float 1e-12)) "no cross-PE traffic" 0.0
    (Metrics.total_comm_energy s ~lib:platform_lib)

let prop_generated_graphs_schedule_validly =
  QCheck.Test.make ~name:"random graphs always schedule validly" ~count:40
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, tasks) ->
      let lo, hi = Tats_taskgraph.Generator.feasible_edges ~n_tasks:tasks in
      let edges = lo + ((seed * 7) mod (Stdlib.max 1 (hi - lo + 1))) in
      let graph =
        Tats_taskgraph.Generator.generate ~seed ~name:"q"
          {
            Tats_taskgraph.Generator.default_spec with
            Tats_taskgraph.Generator.n_tasks = tasks;
            n_edges = edges;
            n_task_types = Benchmarks.n_task_types;
          }
      in
      let s = run_platform ~policy:Policy.Baseline graph in
      Schedule.validate ~lib:platform_lib s = [])

let () =
  Runner.run "tats_sched"
    [
      ( "policy",
        [
          Alcotest.test_case "names roundtrip" `Quick test_policy_names_roundtrip;
          Alcotest.test_case "all policies" `Quick test_policy_all_count;
          Alcotest.test_case "default weights" `Quick test_default_weights;
        ] );
      ( "dc",
        [
          Alcotest.test_case "value formula" `Quick test_dc_value_formula;
          Alcotest.test_case "costs normalized" `Quick test_dc_costs_normalized;
          Alcotest.test_case "pe average power" `Quick test_dc_pe_average_power;
          Alcotest.test_case "temperature cost" `Quick test_dc_temperature_cost;
          Alcotest.test_case "static criticality" `Quick
            test_static_criticality_decreases_downstream;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "valid passes" `Quick test_valid_schedule_passes;
          Alcotest.test_case "precedence breach" `Quick
            test_validate_detects_precedence_breach;
          Alcotest.test_case "overlap" `Quick test_validate_detects_overlap;
          Alcotest.test_case "bad duration" `Quick test_validate_detects_bad_duration;
          Alcotest.test_case "make validation" `Quick test_schedule_make_validation;
          Alcotest.test_case "NaN times" `Quick test_validate_detects_nan_times;
          Alcotest.test_case "infinite times" `Quick test_validate_detects_infinite_times;
        ] );
      ( "list_sched",
        [
          Alcotest.test_case "all policies x benchmarks valid" `Quick
            test_all_policies_produce_valid_schedules;
          Alcotest.test_case "deterministic" `Quick test_scheduler_deterministic;
          Alcotest.test_case "thermal needs hotspot" `Quick test_thermal_requires_hotspot;
          Alcotest.test_case "hotspot size checked" `Quick
            test_thermal_hotspot_size_checked;
          Alcotest.test_case "single PE serializes" `Quick test_single_pe_serializes;
          Alcotest.test_case "heterogeneous valid" `Quick test_heterogeneous_valid;
          Alcotest.test_case "h1 prefers low power" `Quick test_h1_prefers_low_power_pe;
          Alcotest.test_case "mesh NoC validity" `Quick test_mesh_comm_schedules_validly;
          Alcotest.test_case "mesh energy by distance" `Quick
            test_mesh_comm_energy_distance_dependent;
          Alcotest.test_case "all policies valid on mesh" `Quick
            test_all_policies_valid_on_mesh;
          Alcotest.test_case "validate sees hop latency" `Quick
            test_validate_catches_missing_hop_latency;
          Alcotest.test_case "scan surcharge checked" `Quick test_scan_surcharge_checked;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "meets deadline" `Quick
            test_adaptive_meets_deadline_when_possible;
          Alcotest.test_case "cools platform" `Quick test_adaptive_cools_platform;
          Alcotest.test_case "power capped" `Quick test_adaptive_power_capped_at_base;
          Alcotest.test_case "infeasible architecture" `Quick
            test_adaptive_infeasible_architecture;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "pe energies sum" `Quick test_pe_energies_sum;
          Alcotest.test_case "total power" `Quick test_total_power_definition;
          Alcotest.test_case "utilizations" `Quick test_utilizations_bounded;
          Alcotest.test_case "thermal report" `Quick test_thermal_report_consistency;
          Alcotest.test_case "leakage flag" `Quick test_leakage_flag_changes_report;
          Alcotest.test_case "comm energy single PE" `Quick
            test_comm_energy_zero_on_single_pe;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_generated_graphs_schedule_validly ]);
    ]
