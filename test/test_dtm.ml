(* Tests for the DTM simulator (including a transcription-based
   differential check of its closed loop and hysteresis), task-graph
   analysis, the floorplan study, and idle-energy/power-gating metrics. *)

module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Benchmarks = Tats_taskgraph.Benchmarks
module Analysis = Tats_taskgraph.Analysis
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Package = Tats_thermal.Package
module Rcmodel = Tats_thermal.Rcmodel
module Hotspot = Tats_thermal.Hotspot
module Matrix = Tats_linalg.Matrix
module Lu = Tats_linalg.Lu
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched
module Dtm = Tats_sched.Dtm
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

let baseline_schedule bench =
  let graph = Benchmarks.load bench in
  List_sched.run ~graph ~lib:platform_lib ~pes:(platform_pes 4)
    ~policy:Policy.Baseline ()

(* --- Dtm ------------------------------------------------------------------ *)

let no_throttle_params =
  { Dtm.default_params with Dtm.trigger = 1000.0 }

let test_dtm_no_trigger_reproduces_schedule () =
  let s = baseline_schedule 0 in
  let hotspot = platform_hotspot 4 in
  let r = Dtm.simulate ~params:no_throttle_params ~lib:platform_lib ~hotspot s in
  (* Without throttling the simulator replays the schedule. Each task's
     finish rounds up to a dt boundary and the rounding accumulates along
     dependency chains, so the drift bound scales with the graph depth. *)
  let slack =
    float_of_int (Graph.longest_path_hops s.Schedule.graph + 1)
    *. Dtm.default_params.Dtm.dt
  in
  Array.iteri
    (fun task f ->
      let static = s.Schedule.entries.(task).Schedule.finish in
      Alcotest.(check bool)
        (Printf.sprintf "task %d: %.1f vs %.1f" task f static)
        true
        (Float.abs (f -. static) <= slack +. 1e-6))
    r.Dtm.finish;
  Alcotest.(check (float 1e-9)) "no throttling" 0.0 r.Dtm.throttled_fraction

let test_dtm_low_trigger_throttles_and_lengthens () =
  let s = baseline_schedule 0 in
  let hotspot = platform_hotspot 4 in
  let free = Dtm.simulate ~params:no_throttle_params ~lib:platform_lib ~hotspot s in
  let hot_params = { Dtm.default_params with Dtm.trigger = 60.0; hysteresis = 2.0 } in
  let managed = Dtm.simulate ~params:hot_params ~lib:platform_lib ~hotspot s in
  Alcotest.(check bool) "throttling happened" true (managed.Dtm.throttled_fraction > 0.0);
  Alcotest.(check bool) "makespan grows" true (managed.Dtm.makespan > free.Dtm.makespan);
  (* Throttling caps the excursion relative to the unmanaged run. *)
  Alcotest.(check bool) "peak reduced" true
    (managed.Dtm.peak_temperature < free.Dtm.peak_temperature)

let test_dtm_thermal_schedule_throttles_less () =
  (* The thermal-aware schedule runs cooler, so the same DTM trigger
     throttles it less than the baseline — the design-time/run-time story. *)
  let graph = Benchmarks.load 0 in
  let hotspot = platform_hotspot 4 in
  let pes = platform_pes 4 in
  let baseline = List_sched.run ~graph ~lib:platform_lib ~pes ~policy:Policy.Baseline () in
  let thermal, _ =
    List_sched.run_adaptive ~hotspot ~graph ~lib:platform_lib ~pes
      ~policy:Policy.Thermal_aware ()
  in
  let params = { Dtm.default_params with Dtm.trigger = 75.0 } in
  let r_base = Dtm.simulate ~params ~lib:platform_lib ~hotspot baseline in
  let r_thermal = Dtm.simulate ~params ~lib:platform_lib ~hotspot thermal in
  Alcotest.(check bool)
    (Printf.sprintf "thermal %.3f <= baseline %.3f" r_thermal.Dtm.throttled_fraction
       r_base.Dtm.throttled_fraction)
    true
    (r_thermal.Dtm.throttled_fraction <= r_base.Dtm.throttled_fraction +. 1e-9)

let test_dtm_validation () =
  let s = baseline_schedule 0 in
  let hotspot = platform_hotspot 4 in
  let bad params =
    try ignore (Dtm.simulate ~params ~lib:platform_lib ~hotspot s : Dtm.result); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad factor" true
    (bad { Dtm.default_params with Dtm.throttle_factor = 1.5 });
  Alcotest.(check bool) "bad dt" true (bad { Dtm.default_params with Dtm.dt = 0.0 });
  List.iter
    (fun trigger ->
      Alcotest.(check bool) (Printf.sprintf "trigger %g" trigger) true
        (bad { Dtm.default_params with Dtm.trigger }))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check bool) "wrong hotspot" true
    (try
       ignore
         (Dtm.simulate ~lib:platform_lib ~hotspot:(platform_hotspot 2) s : Dtm.result);
       false
     with Invalid_argument _ -> true)

let test_dtm_warmup_passes_raise_peak () =
  (* One cold pass never reaches steady temperature; repeated passes warm
     the package and the peak rises toward (and beyond) the steady value. *)
  let s = baseline_schedule 0 in
  let hotspot = platform_hotspot 4 in
  let run passes =
    Dtm.simulate
      ~params:{ no_throttle_params with Dtm.passes }
      ~lib:platform_lib ~hotspot s
  in
  let cold = run 1 and warm = run 150 in
  Alcotest.(check bool) "warm peak higher" true
    (warm.Dtm.peak_temperature > cold.Dtm.peak_temperature +. 5.0);
  (* Warmed up, the transient peak rides above the steady-state estimate. *)
  let steady =
    (Metrics.thermal_report ~leakage:false s ~hotspot).Metrics.max_temp
  in
  Alcotest.(check bool)
    (Printf.sprintf "warm %.1f vs steady %.1f" warm.Dtm.peak_temperature steady)
    true
    (warm.Dtm.peak_temperature > steady -. 2.0)

let test_dtm_deterministic () =
  let s = baseline_schedule 1 in
  let hotspot = platform_hotspot 4 in
  let params = { Dtm.default_params with Dtm.trigger = 70.0 } in
  let a = Dtm.simulate ~params ~lib:platform_lib ~hotspot s in
  let b = Dtm.simulate ~params ~lib:platform_lib ~hotspot s in
  Alcotest.(check (float 0.0)) "same makespan" a.Dtm.makespan b.Dtm.makespan;
  Alcotest.(check (float 0.0)) "same peak" a.Dtm.peak_temperature b.Dtm.peak_temperature

(* --- DTM closed loop: transcription differential --------------------------- *)

(* The backward-Euler stepper the seed tree in-lined in Dtm, transcribed
   verbatim; the engine-backed simulator must reproduce it bit for bit. *)
let seed_stepper model ~dt =
  let n = Rcmodel.n_nodes model in
  let lhs = Matrix.copy (Rcmodel.system_matrix model) in
  let c = Rcmodel.capacitances model in
  let c_over_dt = Array.init n (fun i -> c.(i) /. dt) in
  for i = 0 to n - 1 do
    Matrix.add_to lhs i i c_over_dt.(i)
  done;
  let factored = Lu.factor lhs in
  fun ~power temps ->
    let rhs = Rcmodel.rhs model ~power in
    let b = Array.init n (fun i -> rhs.(i) +. (c_over_dt.(i) *. temps.(i))) in
    let x = Lu.solve_factored factored b in
    Array.blit x 0 temps 0 n

(* On a 2x2 mesh every transfer also pays hops x per_hop_delay; the
   simulation must wait for it as the scheduler did, so an untriggered run
   still reproduces every task's finish, to the dt rounding that
   accumulates along dependency chains. *)
let test_dtm_mesh_pays_hop_latency () =
  let lib =
    Library.generate ~seed:77 ~n_task_types:Benchmarks.n_task_types
      ~kinds:[ Catalog.platform_kind () ]
      ~comm:(Comm.mesh ~cols:2 ~per_hop_delay:8.0 ())
      ()
  in
  let s =
    List_sched.run ~graph:(Benchmarks.load 0) ~lib ~pes:(platform_pes 4)
      ~policy:Policy.Baseline ()
  in
  let params = { Dtm.default_params with Dtm.trigger = 1e9; dt = 0.01 } in
  let r = Dtm.simulate ~params ~lib ~hotspot:(platform_hotspot 4) s in
  let slack = float_of_int (Graph.longest_path_hops s.Schedule.graph + 1) *. 0.01 in
  Array.iteri
    (fun task f ->
      let static = s.Schedule.entries.(task).Schedule.finish in
      Alcotest.(check bool)
        (Printf.sprintf "task %d: %.2f vs %.2f" task f static)
        true
        (Float.abs (f -. static) <= slack +. 1e-6))
    r.Dtm.finish

let mesh_lib ~per_hop_delay =
  Library.generate ~seed:77 ~n_task_types:Benchmarks.n_task_types
    ~kinds:[ Catalog.platform_kind () ]
    ~comm:(Comm.mesh ~cols:2 ~per_hop_delay ())
    ()

(* Throttled or not, no task finishes before its inputs arrived over the
   mesh (finish + hops x per-hop delay + bytes x rate) and it ran for its
   WCET. *)
let test_dtm_mesh_waits_for_data () =
  let lib = mesh_lib ~per_hop_delay:8.0 in
  let comm = Library.comm lib in
  let hot = { Dtm.default_params with Dtm.trigger = 60.0; hysteresis = 2.0 } in
  List.iter
    (fun (bench, params) ->
      let s =
        List_sched.run ~graph:(Benchmarks.load bench) ~lib ~pes:(platform_pes 4)
          ~policy:Policy.Baseline ()
      in
      let r = Dtm.simulate ~params ~lib ~hotspot:(platform_hotspot 4) s in
      if params == hot then
        Alcotest.(check bool) "throttling happened" true (r.Dtm.throttled_fraction > 0.0);
      let graph = s.Schedule.graph in
      List.iter
        (fun { Graph.src; dst; data } ->
          let pe task = s.Schedule.entries.(task).Schedule.pe in
          let wcet =
            Library.wcet lib ~task_type:(Graph.task graph dst).Task.task_type
              ~kind:s.Schedule.pes.(pe dst).Pe.kind.Pe.kind_id
          in
          let earliest =
            r.Dtm.finish.(src)
            +. Comm.delay_between comm ~src:(pe src) ~dst:(pe dst) ~data
            +. wcet
          in
          if r.Dtm.finish.(dst) < earliest -. 1e-6 then
            Alcotest.failf "Bm%d edge %d->%d: finish %.2f before %.2f" (bench + 1) src
              dst r.Dtm.finish.(dst) earliest)
        (Graph.edges graph))
    [ (0, no_throttle_params); (1, no_throttle_params); (0, hot); (1, hot) ]

(* A mesh whose hops cost nothing is the shared bus at the same rates: the
   same schedule simulates to the same finishes, bit for bit, with and
   without throttling. *)
let test_dtm_zero_hop_mesh_is_bus () =
  let bus =
    Library.generate ~seed:77 ~n_task_types:Benchmarks.n_task_types
      ~kinds:[ Catalog.platform_kind () ]
      ()
  in
  let mesh = mesh_lib ~per_hop_delay:0.0 in
  let s =
    List_sched.run ~graph:(Benchmarks.load 2) ~lib:bus ~pes:(platform_pes 4)
      ~policy:Policy.Baseline ()
  in
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun params ->
      let on lib = Dtm.simulate ~params ~lib ~hotspot:(platform_hotspot 4) s in
      let a = on bus and b = on mesh in
      Alcotest.(check (array int64)) "finishes" (bits a.Dtm.finish) (bits b.Dtm.finish);
      Alcotest.(check (float 0.0)) "peak" a.Dtm.peak_temperature b.Dtm.peak_temperature)
    [ no_throttle_params; { Dtm.default_params with Dtm.trigger = 60.0 } ]

type transition = { t_pe : int; temp : float; engaged : bool }

(* A faithful transcription of Dtm.simulate's closed loop, driven by the
   seed stepper, that additionally logs every throttle transition. Running
   it against Dtm.simulate pins both the engine rewiring (bit-identical
   aggregates) and, through the log, the hysteresis behaviour. *)
let dtm_replica ~params ~lib ~hotspot (s : Schedule.t) =
  let n_pes = Schedule.n_pes s in
  let graph = s.Schedule.graph in
  let n = Graph.n_tasks graph in
  let comm = Library.comm lib in
  let model = Hotspot.model hotspot in
  let step = seed_stepper model ~dt:(params.Dtm.dt *. params.Dtm.time_unit) in
  let queues = Array.init n_pes (fun pe -> ref (Schedule.tasks_on_pe s pe)) in
  let wcet_of task =
    let tt = (Graph.task graph task).Task.task_type in
    Library.wcet lib ~task_type:tt
      ~kind:s.Schedule.pes.(s.Schedule.entries.(task).Schedule.pe).Pe.kind.Pe.kind_id
  in
  let wcpc_of task =
    let tt = (Graph.task graph task).Task.task_type in
    Library.wcpc lib ~task_type:tt
      ~kind:s.Schedule.pes.(s.Schedule.entries.(task).Schedule.pe).Pe.kind.Pe.kind_id
  in
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) s.Schedule.pes in
  let temps =
    Array.make (Rcmodel.n_nodes model) (Rcmodel.package model).Package.ambient
  in
  let throttled = Array.make n_pes false in
  let peak = ref (Rcmodel.package model).Package.ambient in
  let transitions = ref [] in
  let last_lo = Array.make n_pes infinity in
  let last_hi = Array.make n_pes neg_infinity in
  let last = ref None in
  for pass = 1 to params.Dtm.passes do
    if pass = params.Dtm.passes then begin
      Array.fill last_lo 0 n_pes infinity;
      Array.fill last_hi 0 n_pes neg_infinity
    end;
    Array.iteri (fun pe _ -> queues.(pe) := Schedule.tasks_on_pe s pe) queues;
    let progress = Array.make n 0.0 in
    let finish = Array.make n nan in
    let data_ready task pe =
      List.fold_left
        (fun acc (pred, data) ->
          if Float.is_nan finish.(pred) then infinity
          else
            let src = s.Schedule.entries.(pred).Schedule.pe in
            let delay = Comm.delay_between comm ~src ~dst:pe ~data in
            Float.max acc (finish.(pred) +. delay))
        0.0 (Graph.preds graph task)
    in
    let busy_time = ref 0.0 and throttled_time = ref 0.0 in
    let done_count = ref 0 in
    let time = ref 0.0 in
    let horizon = 20.0 *. Float.max s.Schedule.makespan 1.0 in
    while !done_count < n && !time < horizon do
      let running =
        Array.mapi
          (fun pe queue ->
            match !queue with
            | [] -> None
            | (e : Schedule.entry) :: _ ->
                if data_ready e.Schedule.task pe <= !time +. 1e-9 then
                  Some e.Schedule.task
                else None)
          queues
      in
      for pe = 0 to n_pes - 1 do
        let t = temps.(pe) in
        let was = throttled.(pe) in
        if t > params.Dtm.trigger then throttled.(pe) <- true
        else if t < params.Dtm.trigger -. params.Dtm.hysteresis then
          throttled.(pe) <- false;
        if throttled.(pe) <> was then
          transitions := { t_pe = pe; temp = t; engaged = throttled.(pe) } :: !transitions
      done;
      let power = Array.copy idle in
      Array.iteri
        (fun pe task ->
          match task with
          | None -> ()
          | Some task ->
              let rate = if throttled.(pe) then params.Dtm.throttle_factor else 1.0 in
              busy_time := !busy_time +. params.Dtm.dt;
              if throttled.(pe) then throttled_time := !throttled_time +. params.Dtm.dt;
              power.(pe) <- power.(pe) +. (wcpc_of task *. rate);
              progress.(task) <- progress.(task) +. (rate *. params.Dtm.dt);
              if progress.(task) >= wcet_of task -. 1e-9 then begin
                finish.(task) <- !time +. params.Dtm.dt;
                incr done_count;
                queues.(pe) := List.tl !(queues.(pe))
              end)
        running;
      step ~power temps;
      for pe = 0 to n_pes - 1 do
        peak := Float.max !peak temps.(pe);
        if pass = params.Dtm.passes then begin
          last_lo.(pe) <- Float.min last_lo.(pe) temps.(pe);
          last_hi.(pe) <- Float.max last_hi.(pe) temps.(pe)
        end
      done;
      time := !time +. params.Dtm.dt
    done;
    let throttled_fraction =
      if !busy_time > 0.0 then !throttled_time /. !busy_time else 0.0
    in
    last := Some (finish, throttled_fraction)
  done;
  let finish, throttled_fraction =
    match !last with Some r -> r | None -> assert false
  in
  let makespan = Array.fold_left Float.max 0.0 finish in
  ( (finish, makespan, !peak, throttled_fraction),
    List.rev !transitions,
    (last_lo, last_hi) )

let bits = Int64.bits_of_float

let test_dtm_engine_matches_seed_loop () =
  (* Bm1-Bm3 with a trigger that actually throttles: the engine-backed
     simulator must agree with the seed-stepper transcription bit for
     bit — finish times, makespan, peak and throttled fraction. *)
  let params = { Dtm.default_params with Dtm.trigger = 70.0 } in
  List.iter
    (fun bench ->
      let s = baseline_schedule bench in
      let hotspot = platform_hotspot 4 in
      let (finish, makespan, peak, frac), _, _ =
        dtm_replica ~params ~lib:platform_lib ~hotspot s
      in
      let r = Dtm.simulate ~params ~lib:platform_lib ~hotspot s in
      Alcotest.(check bool)
        (Printf.sprintf "Bm%d makespan bit-equal" (bench + 1))
        true
        (bits makespan = bits r.Dtm.makespan);
      Alcotest.(check bool)
        (Printf.sprintf "Bm%d peak bit-equal" (bench + 1))
        true
        (bits peak = bits r.Dtm.peak_temperature);
      Alcotest.(check bool)
        (Printf.sprintf "Bm%d fraction bit-equal" (bench + 1))
        true
        (bits frac = bits r.Dtm.throttled_fraction);
      Array.iteri
        (fun task f ->
          if bits f <> bits r.Dtm.finish.(task) then
            Alcotest.failf "Bm%d task %d finish: %h vs %h" (bench + 1) task f
              r.Dtm.finish.(task))
        finish)
    [ 0; 1; 2 ]

let two_task_schedule () =
  (* Two chained tasks on two PEs: PE0 idles (and cools) once its task is
     done, PE1 idles until the data arrives — both hysteresis directions
     get exercised when the schedule repeats. *)
  let b = Graph.builder ~name:"hot2" ~deadline:1e9 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:1 () in
  Graph.add_edge b ~data:8.0 t0 t1;
  let graph = Graph.build b in
  let pes = platform_pes 2 in
  let wcet task_type pe =
    Library.wcet platform_lib ~task_type ~kind:pes.(pe).Pe.kind.Pe.kind_id
  in
  let wcpc task_type pe =
    Library.wcpc platform_lib ~task_type ~kind:pes.(pe).Pe.kind.Pe.kind_id
  in
  let delay = Comm.delay (Library.comm platform_lib) ~data:8.0 ~same_pe:false in
  let f0 = wcet 0 0 in
  let s1 = f0 +. delay in
  let entries =
    [|
      {
        Schedule.task = t0;
        pe = 0;
        start = 0.0;
        finish = f0;
        energy = wcet 0 0 *. wcpc 0 0;
      };
      {
        Schedule.task = t1;
        pe = 1;
        start = s1;
        finish = s1 +. wcet 1 1;
        energy = wcet 1 1 *. wcpc 1 1;
      };
    |]
  in
  Schedule.make ~graph ~pes ~entries

let test_dtm_hysteresis_no_chatter () =
  (* Replay the hand-built scenario long enough to warm through the
     trigger band and log every throttle transition. The hysteresis
     contract: engagement only strictly above [trigger], release only
     strictly below [trigger - hysteresis] — never inside the band — so
     consecutive transitions need at least [hysteresis] degrees of travel
     (no chatter). The replica's aggregates are pinned to Dtm.simulate
     bit for bit, so the log speaks for the real simulator. *)
  let s = two_task_schedule () in
  let hotspot = platform_hotspot 2 in
  (* Calibrate the trigger to the scenario: replay once without DTM
     (unreachable trigger) and put the threshold mid-way into PE0's
     warmed-up duty-cycle oscillation, so both crossings must occur. *)
  let _, _, (lo, hi) =
    dtm_replica
      ~params:{ Dtm.default_params with Dtm.trigger = 1e9; passes = 120 }
      ~lib:platform_lib ~hotspot s
  in
  let ripple = hi.(0) -. lo.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "duty cycle ripples (%.3f degC)" ripple)
    true (ripple > 0.2);
  let trigger = lo.(0) +. (0.6 *. ripple) in
  let hysteresis = 0.25 *. ripple in
  let params =
    { Dtm.default_params with Dtm.trigger; hysteresis; passes = 120 }
  in
  let (_, makespan, peak, frac), transitions, _ =
    dtm_replica ~params ~lib:platform_lib ~hotspot s
  in
  let r = Dtm.simulate ~params ~lib:platform_lib ~hotspot s in
  Alcotest.(check bool) "replica pins the simulator" true
    (bits makespan = bits r.Dtm.makespan
    && bits peak = bits r.Dtm.peak_temperature
    && bits frac = bits r.Dtm.throttled_fraction);
  let engages = List.filter (fun t -> t.engaged) transitions in
  let releases = List.filter (fun t -> not t.engaged) transitions in
  Alcotest.(check bool)
    (Printf.sprintf "scenario throttles (%d engages)" (List.length engages))
    true
    (List.length engages >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "scenario recovers (%d releases)" (List.length releases))
    true
    (List.length releases >= 1);
  List.iter
    (fun tr ->
      if tr.engaged then
        Alcotest.(check bool)
          (Printf.sprintf "engage at %.3f only above trigger" tr.temp)
          true (tr.temp > trigger)
      else
        Alcotest.(check bool)
          (Printf.sprintf "release at %.3f only below trigger - hysteresis" tr.temp)
          true
          (tr.temp < trigger -. hysteresis))
    transitions;
  (* No transition inside the dead band means consecutive opposite
     transitions on a PE are separated by >= hysteresis degrees. *)
  let last_by_pe = Hashtbl.create 4 in
  List.iter
    (fun tr ->
      (match Hashtbl.find_opt last_by_pe tr.t_pe with
      | Some prev when prev.engaged <> tr.engaged ->
          Alcotest.(check bool) "band travelled between transitions" true
            (Float.abs (tr.temp -. prev.temp) >= hysteresis)
      | _ -> ());
      Hashtbl.replace last_by_pe tr.t_pe tr)
    transitions

let test_dtm_throttled_fraction_bounded () =
  let s = baseline_schedule 0 in
  let hotspot = platform_hotspot 4 in
  List.iter
    (fun trigger ->
      let r =
        Dtm.simulate
          ~params:{ Dtm.default_params with Dtm.trigger }
          ~lib:platform_lib ~hotspot s
      in
      Alcotest.(check bool)
        (Printf.sprintf "trigger %.0f: fraction %.4f in [0,1]" trigger
           r.Dtm.throttled_fraction)
        true
        (r.Dtm.throttled_fraction >= 0.0 && r.Dtm.throttled_fraction <= 1.0))
    [ 50.0; 60.0; 70.0; 85.0; 1000.0 ]

let test_dtm_peak_monotone_in_throttle_factor () =
  (* A deeper throttle (smaller factor) sheds more power while hot, so the
     all-time peak cannot rise. *)
  let s = baseline_schedule 0 in
  let hotspot = platform_hotspot 4 in
  let peak factor =
    (Dtm.simulate
       ~params:{ Dtm.default_params with Dtm.trigger = 60.0; throttle_factor = factor }
       ~lib:platform_lib ~hotspot s)
      .Dtm.peak_temperature
  in
  let p25 = peak 0.25 and p50 = peak 0.5 and p90 = peak 0.9 in
  Alcotest.(check bool)
    (Printf.sprintf "peaks %.3f <= %.3f <= %.3f" p25 p50 p90)
    true
    (p25 <= p50 +. 1e-9 && p50 <= p90 +. 1e-9)

(* --- Analysis -------------------------------------------------------------- *)

let diamond () =
  let b = Graph.builder ~name:"d" ~deadline:10.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:0 () in
  let t2 = Graph.add_task b ~task_type:0 () in
  let t3 = Graph.add_task b ~task_type:0 () in
  Graph.add_edge b t0 t1;
  Graph.add_edge b t0 t2;
  Graph.add_edge b t1 t3;
  Graph.add_edge b t2 t3;
  Graph.build b

let test_analysis_diamond () =
  let a = Analysis.analyze (diamond ()) in
  Alcotest.(check int) "depth" 3 a.Analysis.depth;
  Alcotest.(check int) "width" 2 a.Analysis.width;
  Alcotest.(check (array int)) "levels" [| 1; 2; 1 |] a.Analysis.level_sizes;
  Alcotest.(check int) "sources" 1 a.Analysis.n_sources;
  Alcotest.(check int) "sinks" 1 a.Analysis.n_sinks;
  Alcotest.(check int) "max out" 2 a.Analysis.max_out_degree;
  Alcotest.(check int) "max in" 2 a.Analysis.max_in_degree;
  Alcotest.(check (float 1e-9)) "parallelism" (4.0 /. 3.0) a.Analysis.avg_parallelism

let test_analysis_levels_respect_edges () =
  let g = Benchmarks.load 1 in
  let level = Analysis.levels g in
  List.iter
    (fun { Graph.src; dst; _ } ->
      Alcotest.(check bool) "level increases along edges" true (level.(dst) > level.(src)))
    (Graph.edges g)

let test_analysis_consistency_on_benchmarks () =
  Array.iteri
    (fun i _ ->
      let g = Benchmarks.load i in
      let a = Analysis.analyze g in
      Alcotest.(check int) "level sizes sum to tasks" a.Analysis.n_tasks
        (Array.fold_left ( + ) 0 a.Analysis.level_sizes);
      Alcotest.(check int) "depth matches graph" (Graph.longest_path_hops g)
        a.Analysis.depth;
      Alcotest.(check bool) "density in range" true
        (a.Analysis.edge_density > 0.0 && a.Analysis.edge_density <= 1.0))
    Benchmarks.descriptors

(* --- Floorplan study -------------------------------------------------------- *)

let test_floorplan_study_thermal_cooler_on_average () =
  let rows = Core.Experiments.floorplan_study () in
  Alcotest.(check int) "four seeds" 4 (List.length rows);
  let mean f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 rows /. float_of_int (List.length rows)
  in
  let d =
    mean (fun (r : Core.Experiments.floorplan_study_row) ->
        r.Core.Experiments.area_only_peak -. r.Core.Experiments.thermal_aware_peak)
  in
  Alcotest.(check bool) (Printf.sprintf "mean reduction %.2f °C" d) true (d > 0.0);
  List.iter
    (fun (r : Core.Experiments.floorplan_study_row) ->
      Alcotest.(check bool) "bounded overhead" true
        (r.Core.Experiments.area_overhead < 1.6))
    rows

(* --- Idle energy / power gating ---------------------------------------------- *)

let test_idle_energy_accounting () =
  let s = baseline_schedule 0 in
  let idle = Metrics.idle_energy s in
  (* Four PEs at 0.6 W idle for (makespan - busy) each. *)
  let utils = Metrics.utilizations s in
  let expect =
    Array.fold_left
      (fun acc u -> acc +. (0.6 *. ((1.0 -. u) *. s.Schedule.makespan)))
      0.0 utils
  in
  Alcotest.(check bool) "matches utilization view" true (Float.abs (idle -. expect) < 1e-6)

let test_power_gating_monotone_in_break_even () =
  let s = baseline_schedule 0 in
  let s0 = Metrics.power_gating_saving s ~break_even:0.0 in
  let s50 = Metrics.power_gating_saving s ~break_even:50.0 in
  let s_inf = Metrics.power_gating_saving s ~break_even:1e12 in
  Alcotest.(check bool) "monotone" true (s0 >= s50 && s50 >= s_inf);
  Alcotest.(check (float 1e-9)) "nothing gated at infinity" 0.0 s_inf;
  (* With break-even 0 every idle moment is gated. *)
  Alcotest.(check bool) "full gating = idle energy" true
    (Float.abs (s0 -. Metrics.idle_energy s) < 1e-6)

let () =
  Runner.run "dtm_analysis"
    [
      ( "dtm",
        [
          Alcotest.test_case "no trigger = schedule" `Quick
            test_dtm_no_trigger_reproduces_schedule;
          Alcotest.test_case "mesh hop latency" `Quick
            test_dtm_mesh_pays_hop_latency;
          Alcotest.test_case "mesh waits for data" `Quick test_dtm_mesh_waits_for_data;
          Alcotest.test_case "zero-hop mesh = bus" `Quick test_dtm_zero_hop_mesh_is_bus;
          Alcotest.test_case "low trigger throttles" `Quick
            test_dtm_low_trigger_throttles_and_lengthens;
          Alcotest.test_case "thermal schedule throttles less" `Quick
            test_dtm_thermal_schedule_throttles_less;
          Alcotest.test_case "validation" `Quick test_dtm_validation;
          Alcotest.test_case "deterministic" `Quick test_dtm_deterministic;
          Alcotest.test_case "warm-up passes" `Quick test_dtm_warmup_passes_raise_peak;
          Alcotest.test_case "engine matches seed loop" `Quick
            test_dtm_engine_matches_seed_loop;
          Alcotest.test_case "hysteresis has no chatter" `Quick
            test_dtm_hysteresis_no_chatter;
          Alcotest.test_case "throttled fraction bounded" `Quick
            test_dtm_throttled_fraction_bounded;
          Alcotest.test_case "peak monotone in factor" `Quick
            test_dtm_peak_monotone_in_throttle_factor;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "diamond" `Quick test_analysis_diamond;
          Alcotest.test_case "levels respect edges" `Quick
            test_analysis_levels_respect_edges;
          Alcotest.test_case "benchmark consistency" `Quick
            test_analysis_consistency_on_benchmarks;
        ] );
      ( "floorplan_study",
        [
          Alcotest.test_case "thermal cooler" `Quick
            test_floorplan_study_thermal_cooler_on_average;
        ] );
      ( "power_gating",
        [
          Alcotest.test_case "idle energy" `Quick test_idle_energy_accounting;
          Alcotest.test_case "gating monotone" `Quick
            test_power_gating_monotone_in_break_even;
        ] );
    ]
