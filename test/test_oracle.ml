(* An exhaustive makespan oracle for small graphs, and the schedulers
   checked against it.

   A schedule is an assignment of tasks to PEs plus an order per PE, every
   task starting as early as that allows: at the latest of its data's
   arrival (each predecessor's finish plus [Comm.delay_between]) and the
   finish of the task before it on its PE. Any valid schedule, gaps
   included, orders each PE's tasks by start time, and the earliest-start
   schedule of those orders finishes no later; so the best of these
   schedules is the optimum makespan over every valid schedule. A
   depth-first search that commits one (ready task, PE) pair at a time,
   appending it to its PE, reaches every such schedule; with [prune], it
   skips a branch once a lower bound on its makespan reaches the best one
   found, and tries one empty PE among interchangeable ones.

   With release times, no task starts before its release: one more floor
   on every start, so the same argument gives the optimum among schedules
   that respect them, the bound [Online]'s schedules answer to. *)

module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
module Pe = Tats_techlib.Pe
module Comm = Tats_techlib.Comm
module Library = Tats_techlib.Library
module Platform = Tats_techlib.Platform
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched
module Heft = Tats_sched.Heft
module Sa_mapper = Tats_sched.Sa_mapper
module Metrics = Tats_sched.Metrics
module Online = Tats_sched.Online

let search ?release ~prune ~graph ~lib ~pes () =
  let n = Graph.n_tasks graph and n_pes = Array.length pes in
  let release = Option.value release ~default:(Array.make n 0.0) in
  let comm = Library.comm lib in
  let wcet =
    Array.init n (fun t ->
        let task_type = (Graph.task graph t).Task.task_type in
        Array.map
          (fun (i : Pe.inst) -> Library.wcet lib ~task_type ~kind:i.Pe.kind.Pe.kind_id)
          pes)
  in
  (* PEs of one kind on a bus are interchangeable: an empty PE is as good
     as any other, so only the first one is tried. *)
  let interchangeable =
    prune && comm.Comm.topology = Comm.Shared_bus
    && Array.for_all (fun (i : Pe.inst) -> i.Pe.kind.Pe.kind_id = pes.(0).Pe.kind.Pe.kind_id) pes
  in
  let order = Graph.topological_order graph in
  let pe_of = Array.make n (-1) and finish = Array.make n 0.0 in
  let avail = Array.make n_pes 0.0 in
  let missing = Array.init n (fun t -> List.length (Graph.preds graph t)) in
  (* [early.(p)] of an unplaced predecessor: see [lower_bound]. *)
  let early = Array.make n 0.0 in
  let arrival t pe =
    List.fold_left
      (fun acc (p, data) ->
        Float.max acc
          (if pe_of.(p) >= 0 then
             finish.(p) +. Comm.delay_between comm ~src:pe_of.(p) ~dst:pe ~data
           else early.(p)))
      release.(t) (Graph.preds graph t)
  in
  (* Every unplaced task finishes no earlier than on its best PE, appended
     there, once its placed predecessors' data has arrived and its
     unplaced ones have finished as early as this bound lets them. *)
  let lower_bound () =
    Array.fold_left
      (fun bound t ->
        if pe_of.(t) < 0 then begin
          early.(t) <- infinity;
          for pe = 0 to n_pes - 1 do
            early.(t) <-
              Float.min early.(t)
                (Float.max (arrival t pe) avail.(pe) +. wcet.(t).(pe))
          done
        end;
        Float.max bound (if pe_of.(t) >= 0 then finish.(t) else early.(t)))
      0.0 order
  in
  let best = ref infinity in
  let rec go placed used =
    if placed = n then best := Float.min !best (Array.fold_left Float.max 0.0 finish)
    else if (not prune) || lower_bound () < !best then
      for t = 0 to n - 1 do
        if pe_of.(t) < 0 && missing.(t) = 0 then
          for pe = 0 to if interchangeable then min used (n_pes - 1) else n_pes - 1 do
            let before = avail.(pe) in
            let f = Float.max (arrival t pe) before +. wcet.(t).(pe) in
            pe_of.(t) <- pe;
            finish.(t) <- f;
            avail.(pe) <- f;
            List.iter (fun (s, _) -> missing.(s) <- missing.(s) - 1) (Graph.succs graph t);
            go (placed + 1) (max used (pe + 1));
            List.iter (fun (s, _) -> missing.(s) <- missing.(s) + 1) (Graph.succs graph t);
            avail.(pe) <- before;
            finish.(t) <- 0.0;
            pe_of.(t) <- -1
          done
      done
  in
  go 0 0;
  !best

let optimum ?release ~graph ~lib ~pes () =
  search ?release ~prune:true ~graph ~lib ~pes ()

(* --- inputs ------------------------------------------------------------- *)

let small_graph seed =
  let n_tasks = 5 + (seed mod 3) in
  let lo, _ = Generator.feasible_edges ~n_tasks in
  Generator.generate ~seed:(900 + seed)
    ~name:(Printf.sprintf "small%d" seed)
    {
      Generator.default_spec with
      Generator.n_tasks;
      (* Sparse, so that tasks run in parallel and PE choices matter. *)
      n_edges = lo + (seed mod 3);
      n_task_types = Benchmarks.n_task_types;
    }

let graphs = List.map small_graph (List.init 20 Fun.id)

(* Two PEs of biglittle4's two kinds: one big, one LITTLE. *)
let hetero2 =
  let kinds =
    Array.to_list
      (Platform.kinds (Option.get (Catalog.platform_named "biglittle4")))
  in
  let platform = Platform.make ~name:"biglittle2" ~kinds ~slots:[ 0; 1 ] in
  ("biglittle2", (Catalog.library_for platform, Platform.instances platform))

let homogeneous =
  List.map
    (fun n ->
      (Printf.sprintf "std%d" n, (Catalog.platform_library (), Catalog.platform_instances n)))
    [ 2; 3 ]

let platforms = homogeneous @ [ hetero2 ]

let hotspot pes =
  Hotspot.create
    (Grid.layout
       (Array.map
          (fun (i : Pe.inst) ->
            Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
          pes))

(* A seeded sporadic release stream per graph, dense enough that releases
   bind: a mean gap of about one task's WCET on the std platform. *)
let arrivals graph =
  Online.sporadic ~mean_gap:20.0 ~seed:(Hashtbl.hash (Graph.name graph)) graph

(* [s] is valid, starts no task before [release] and is no shorter than
   [best]. *)
let check_schedule ~at ~lib ?release ~best (s : Schedule.t) =
  (match Schedule.validate ~lib s with
  | [] -> ()
  | _ :: _ as v -> Alcotest.failf "%s: %d violations" at (List.length v));
  Option.iter
    (Array.iteri (fun t r ->
         if s.Schedule.entries.(t).Schedule.start < r then
           Alcotest.failf "%s: task %d starts before its release %h" at t r))
    release;
  if not (s.Schedule.makespan >= best -. 1e-9) then
    Alcotest.failf "%s: makespan %h below the optimum %h" at s.Schedule.makespan
      best

(* [schedules] on every graph of every platform is valid and no shorter
   than the optimum. *)
let against_oracle platforms schedules () =
  List.iter
    (fun (pname, (lib, pes)) ->
      List.iter
        (fun graph ->
          let best = optimum ~graph ~lib ~pes () in
          List.iter
            (fun (what, s) ->
              check_schedule ~at:(Printf.sprintf "%s/%s/%s" pname (Graph.name graph) what)
                ~lib ~best s)
            (schedules ~graph ~lib ~pes))
        graphs)
    platforms

(* The same for schedules under each graph's [arrivals], against the
   optimum that respects them. *)
let against_release_oracle schedules () =
  List.iter
    (fun (pname, (lib, pes)) ->
      List.iter
        (fun graph ->
          let release = arrivals graph in
          let best = optimum ~release ~graph ~lib ~pes () in
          List.iter
            (fun (what, s) ->
              check_schedule ~at:(Printf.sprintf "%s/%s/%s" pname (Graph.name graph) what)
                ~lib ~release ~best s)
            (schedules ~arrivals:release ~graph ~lib ~pes))
        graphs)
    platforms

(* Power heuristics only ever weaken, as in [Flow]. *)
let max_multiplier = function
  | Policy.Power_aware _ -> 1.0
  | Policy.Baseline | Policy.Thermal_aware -> 400.0

let list_sched policy ~graph ~lib ~pes =
  [
    ("run", List_sched.run ~hotspot:(hotspot pes) ~graph ~lib ~pes ~policy ());
    ( "run_adaptive",
      fst
        (List_sched.run_adaptive ~max_multiplier:(max_multiplier policy)
           ~hotspot:(hotspot pes) ~graph ~lib ~pes ~policy ()) );
  ]

let heft ~graph ~lib ~pes = [ ("heft", Heft.run ~graph ~lib ~pes ()) ]

let sa_mapper ~graph ~lib ~pes =
  let params =
    {
      Sa_mapper.initial_temperature = 20.0;
      cooling = 0.85;
      moves_per_temperature = 20;
      min_temperature = 0.5;
    }
  in
  [
    ( "sa_mapper",
      (Sa_mapper.run ~params ~seed:3 ~objective:Sa_mapper.Makespan ~graph ~lib ~pes ())
        .Sa_mapper.schedule );
  ]

let online policies ~arrivals ~graph ~lib ~pes =
  List.map
    (fun policy ->
      ( Online.policy_name policy,
        (Online.run ~hotspot:(hotspot pes) ~arrivals ~graph ~lib ~pes ~policy ())
          .Online.schedule ))
    policies

(* A trigger the platforms pass at decision points, so that migration
   pressure and cooldown stalls both act (as in Experiments' online rows). *)
let reactive =
  [
    Online.Reactive Online.default_reactive;
    Online.Reactive { Online.default_reactive with Online.trigger = 50.0 };
  ]

let clairvoyant ~arrivals ~graph ~lib ~pes =
  List.map
    (fun policy ->
      ( Policy.name policy,
        Online.clairvoyant ~hotspot:(hotspot pes) ~arrivals ~graph ~lib ~pes ~policy () ))
    Policy.all

let test_pruning_keeps_the_optimum () =
  List.iter
    (fun (pname, (lib, pes)) ->
      List.iter
        (fun graph ->
          List.iter
            (fun (what, release) ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s/%s%s" pname (Graph.name graph) what)
                (search ?release ~prune:false ~graph ~lib ~pes ())
                (optimum ?release ~graph ~lib ~pes ()))
            [ ("", None); (" released", Some (arrivals graph)) ])
        graphs)
    platforms

let test_lower_bound () =
  List.iter
    (fun (pname, (lib, pes)) ->
      List.iter
        (fun graph ->
          let best = optimum ~graph ~lib ~pes () in
          let bound = Metrics.makespan_lower_bound graph ~lib ~n_pes:(Array.length pes) in
          if not (bound <= best +. 1e-9) then
            Alcotest.failf "%s/%s: lower bound %h above the optimum %h" pname
              (Graph.name graph) bound best)
        graphs)
    platforms

(* --- the oracle on hand-computed graphs ---------------------------------- *)

(* The optimum of a graph whose task [t] has type [t], with WCETs
   [wcet.(t)] per kind, on two PEs (one of each kind when there are two)
   on a bus at 1 time unit per byte. *)
let tiny ?release ~wcet edges =
  let n_kinds = Array.length wcet.(0) in
  let kinds =
    List.init n_kinds (fun k ->
        Pe.make_kind ~kind_id:k ~name:(Printf.sprintf "k%d" k) ~area:1e-5 ~cost:1.0
          ~speed:1.0 ~power_scale:1.0 ~idle_power:0.1 ())
  in
  let lib =
    Library.of_tables ~kinds ~wcet
      ~wcpc:(Array.map (Array.map (fun _ -> 1.0)) wcet)
      ~comm:(Comm.make ~delay_per_byte:1.0 ~energy_per_byte:0.0 ())
      ()
  in
  let b = Graph.builder ~name:"tiny" ~deadline:1000.0 in
  Array.iteri (fun t _ -> ignore (Graph.add_task b ~task_type:t () : Task.id)) wcet;
  List.iter (fun (src, dst, data) -> Graph.add_edge b ~data src dst) edges;
  let pes =
    Pe.instances
      (List.init 2 (fun i -> List.nth kinds (min i (n_kinds - 1))))
  in
  optimum ?release ~graph:(Graph.build b) ~lib ~pes ()

let test_chain () =
  (* One kind: spreading a chain only adds transfers, so the optimum is
     its work on one PE, 10 + 20 + 30. *)
  Alcotest.(check (float 0.0)) "homogeneous chain" 60.0
    (tiny ~wcet:[| [| 10.0 |]; [| 20.0 |]; [| 30.0 |] |]
       [ (0, 1, 5.0); (1, 2, 5.0) ]);
  (* The middle task is four times faster on the second kind: moving it
     there costs two 5-unit transfers and saves 30, 10 + 5 + 10 + 5 + 10;
     the whole chain on either kind takes 60 or 70. *)
  Alcotest.(check (float 0.0)) "heterogeneous chain" 40.0
    (tiny ~wcet:[| [| 10.0; 30.0 |]; [| 40.0; 10.0 |]; [| 10.0; 30.0 |] |]
       [ (0, 1, 5.0); (1, 2, 5.0) ])

let test_fork_join () =
  (* 0 -> {1, 2} -> 3, 2 bytes per edge. Branches on one PE: 10 + 30 + 30
     + 10 = 80. Split: the moved branch starts at 10 + 2 and finishes at
     42; the join runs on its PE from max(42, 40 + 2), finishing at 52
     (54 on the other PE). *)
  Alcotest.(check (float 0.0)) "fork-join" 52.0
    (tiny ~wcet:[| [| 10.0 |]; [| 30.0 |]; [| 30.0 |]; [| 10.0 |] |]
       [ (0, 1, 2.0); (0, 2, 2.0); (1, 3, 2.0); (2, 3, 2.0) ])

let test_release_floors () =
  (* Two independent tasks, the longer released at 100: it cannot start
     earlier on either PE, 100 + 20. *)
  Alcotest.(check (float 0.0)) "independent" 120.0
    (tiny ~release:[| 0.0; 100.0 |] ~wcet:[| [| 10.0 |]; [| 20.0 |] |] []);
  (* The fork-join of [test_fork_join] with branch 2 released at 50: it
     finishes at 80 wherever it runs, and the join at 90 at best on its
     PE (92 on the other, which waits for 2 bytes); both branches on one
     PE, 1 then 2, also reach 90. *)
  Alcotest.(check (float 0.0)) "fork-join" 90.0
    (tiny ~release:[| 0.0; 0.0; 50.0; 0.0 |]
       ~wcet:[| [| 10.0 |]; [| 30.0 |]; [| 30.0 |]; [| 10.0 |] |]
       [ (0, 1, 2.0); (0, 2, 2.0); (1, 3, 2.0); (2, 3, 2.0) ])

let () =
  let policy_cases platforms suffix =
    List.map
      (fun policy ->
        Alcotest.test_case
          (Printf.sprintf "%s %s" (Policy.name policy) suffix)
          `Quick
          (against_oracle platforms (list_sched policy)))
      Policy.all
  in
  Runner.run "oracle"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "fork-join" `Quick test_fork_join;
          Alcotest.test_case "pruning keeps the optimum" `Quick
            test_pruning_keeps_the_optimum;
          Alcotest.test_case "release floors" `Quick test_release_floors;
        ] );
      ("list_sched homogeneous", policy_cases homogeneous "on std2/std3");
      ("list_sched heterogeneous", policy_cases [ hetero2 ] "on biglittle2");
      ( "others",
        [
          Alcotest.test_case "heft" `Quick (against_oracle platforms heft);
          Alcotest.test_case "sa_mapper" `Quick (against_oracle platforms sa_mapper);
          Alcotest.test_case "makespan lower bound" `Quick test_lower_bound;
        ] );
      ( "online, released",
        [
          Alcotest.test_case "mirrors" `Quick
            (against_release_oracle
               (online (List.map (fun p -> Online.Mirror p) Policy.all)));
          Alcotest.test_case "reactive" `Quick
            (against_release_oracle (online reactive));
          Alcotest.test_case "clairvoyant" `Quick
            (against_release_oracle clairvoyant);
        ] );
    ]
