(* An exhaustive makespan oracle for small graphs, a temperature oracle
   over the same schedules, and the schedulers checked against both.

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
   that respect them, the bound [Online]'s schedules answer to.

   The temperature oracle reports the coolest of these schedules that
   meet the deadline (see [coolest]). *)

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

(* Every earliest-start schedule, depth first: [leaf] sees each complete
   one's PEs, starts and finishes (arrays it must copy to keep). With
   [cut], a branch is skipped once [cut bound] holds for a lower bound on
   the makespan of every completion. With [symmetric], one empty PE among
   interchangeable ones is tried. *)
let explore ?release ?cut ~symmetric ~leaf ~graph ~lib ~pes () =
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
  (* PEs of one kind on a bus are interchangeable for the makespan: an
     empty PE is as good as any other, so only the first one is tried. *)
  let interchangeable =
    symmetric && comm.Comm.topology = Comm.Shared_bus
    && Array.for_all (fun (i : Pe.inst) -> i.Pe.kind.Pe.kind_id = pes.(0).Pe.kind.Pe.kind_id) pes
  in
  let order = Graph.topological_order graph in
  let pe_of = Array.make n (-1) and start = Array.make n 0.0 in
  let finish = Array.make n 0.0 in
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
  let rec go placed used =
    if placed = n then leaf ~pe_of ~start ~finish
    else if match cut with None -> true | Some cut -> not (cut (lower_bound ()))
    then
      for t = 0 to n - 1 do
        if pe_of.(t) < 0 && missing.(t) = 0 then
          for pe = 0 to if interchangeable then min used (n_pes - 1) else n_pes - 1 do
            let before = avail.(pe) in
            let s = Float.max (arrival t pe) before in
            let f = s +. wcet.(t).(pe) in
            pe_of.(t) <- pe;
            start.(t) <- s;
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
  go 0 0

let makespan_of finish = Array.fold_left Float.max 0.0 finish

(* The optimum makespan; [prune] skips the branches that cannot beat the
   best found and the interchangeable PEs. *)
let search ?release ~prune ~graph ~lib ~pes () =
  let best = ref infinity in
  explore ?release
    ?cut:(if prune then Some (fun bound -> bound >= !best) else None)
    ~symmetric:prune
    ~leaf:(fun ~pe_of:_ ~start:_ ~finish -> best := Float.min !best (makespan_of finish))
    ~graph ~lib ~pes ();
  !best

let optimum ?release ~graph ~lib ~pes () =
  search ?release ~prune:true ~graph ~lib ~pes ()

(* --- inputs ------------------------------------------------------------- *)

(* [deadline] draws nothing from the generator, so it changes only the
   graph's deadline. *)
let small_graph ?(deadline = Generator.default_spec.Generator.deadline) seed =
  let n_tasks = 5 + (seed mod 3) in
  let lo, _ = Generator.feasible_edges ~n_tasks in
  Generator.generate ~seed:(900 + seed)
    ~name:(Printf.sprintf "small%d" seed)
    {
      Generator.default_spec with
      Generator.n_tasks;
      deadline;
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

(* --- the temperature oracle ---------------------------------------------- *)

(* The coolest schedules of the same space among those that meet the
   graph's deadline: the lowest peak and the lowest average steady-state
   temperature, as [Metrics] reports them, each with a schedule reaching
   it. [Metrics] runs each PE at its energy over the makespan, and a PE's
   energy depends on the assignment alone; temperatures rise with power
   (DESIGN.md §6). So under one assignment the longest deadline-meeting
   makespan is the coolest on both metrics, and only that schedule of
   each assignment is evaluated. A branch whose makespan bound already
   misses the deadline is skipped. [None] when no schedule meets it. *)
type coolest = { peak : float * Schedule.t; mean : float * Schedule.t }

(* [Schedule.meets_deadline]'s test, on a makespan. *)
let meets graph makespan = makespan <= Graph.deadline graph +. 1e-9

let coolest ~graph ~lib ~pes ~hotspot =
  let n = Graph.n_tasks graph and n_pes = Array.length pes in
  let energy =
    Array.init n (fun t ->
        let task_type = (Graph.task graph t).Task.task_type in
        Array.map
          (fun (i : Pe.inst) -> Library.energy lib ~task_type ~kind:i.Pe.kind.Pe.kind_id)
          pes)
  in
  (* Per assignment, its longest deadline-meeting makespan and entries. *)
  let longest = Hashtbl.create 256 in
  explore
    ~cut:(fun bound -> not (meets graph bound))
    ~symmetric:false
    ~leaf:(fun ~pe_of ~start ~finish ->
      let makespan = makespan_of finish in
      if meets graph makespan then begin
        let key = Array.fold_left (fun k pe -> (k * n_pes) + pe) 0 pe_of in
        match Hashtbl.find_opt longest key with
        | Some (m, _) when m >= makespan -> ()
        | _ ->
            let entries =
              Array.init n (fun task ->
                  let pe = pe_of.(task) in
                  { Schedule.task; pe; start = start.(task); finish = finish.(task);
                    energy = energy.(task).(pe) })
            in
            Hashtbl.replace longest key (makespan, entries)
      end)
    ~graph ~lib ~pes ();
  let lower temp s = function
    | Some (t, _) as best when t <= temp -> best
    | _ -> Some (temp, s)
  in
  match
    Hashtbl.fold
      (fun _ (_, entries) (peak, mean) ->
        let s = Schedule.make ~graph ~pes ~entries in
        let r = Metrics.thermal_report s ~hotspot in
        (lower r.Metrics.max_temp s peak, lower r.Metrics.avg_temp s mean))
      longest (None, None)
  with
  | Some peak, Some mean -> Some { peak; mean }
  | _ -> None

(* The small graphs, each with its deadline 20% past its optimum makespan
   on the platform, so that the deadline binds. *)
let binding_graphs (lib, pes) =
  List.mapi
    (fun seed graph ->
      small_graph ~deadline:(1.2 *. optimum ~graph ~lib ~pes ()) seed)
    graphs

(* Per platform: its hotspot, and each binding graph with its oracle. *)
let thermal_cases =
  List.map
    (fun (pname, ((lib, pes) as platform)) ->
      let hotspot = hotspot pes in
      ( pname,
        (lib, pes, hotspot),
        List.map
          (fun graph -> (graph, coolest ~graph ~lib ~pes ~hotspot))
          (binding_graphs platform) ))
    platforms

let thermal_case pname =
  let _, platform, cases = List.find (fun (p, _, _) -> p = pname) thermal_cases in
  (platform, cases)

(* Every policy's [run] and [run_adaptive] schedule that meets the deadline
   is no cooler than the oracle on either metric; none meets it where no
   schedule does. *)
let test_no_policy_cooler pname () =
  let (lib, pes, hotspot), cases = thermal_case pname in
  let checked = ref 0 in
  List.iter
    (fun (graph, oracle) ->
      List.iter
        (fun policy ->
          List.iter
            (fun (what, s) ->
              let at =
                Printf.sprintf "%s/%s/%s %s" pname (Graph.name graph)
                  (Policy.name policy) what
              in
              if Schedule.meets_deadline s then
                match oracle with
                | None -> Alcotest.failf "%s meets a deadline no schedule meets" at
                | Some { peak = peak, _; mean = mean, _ } ->
                    incr checked;
                    let r = Metrics.thermal_report s ~hotspot in
                    if not (r.Metrics.max_temp >= peak) then
                      Alcotest.failf "%s: peak %h below the coolest %h" at
                        r.Metrics.max_temp peak;
                    if not (r.Metrics.avg_temp >= mean) then
                      Alcotest.failf "%s: average %h below the coolest %h" at
                        r.Metrics.avg_temp mean)
            (list_sched policy ~graph ~lib ~pes))
        Policy.all)
    cases;
  Alcotest.(check bool) "some schedule meets its deadline" true (!checked > 0)

(* On one PE every order has the same makespan and energy, so every
   policy's schedule is as cool as the oracle's, bit for bit. The same
   only up to rounding with the platform's own WCETs, whose sums depend on
   their order: here they are rounded to integers, so every sum is exact. *)
let test_one_pe_anchor () =
  let platform = Catalog.platform_library () and pes = Catalog.platform_instances 1 in
  let table f =
    Array.init Benchmarks.n_task_types (fun task_type -> [| f ~task_type ~kind:0 |])
  in
  let lib =
    Library.of_tables ~kinds:[ Catalog.platform_kind () ]
      ~wcet:(table (fun ~task_type ~kind -> Float.round (Library.wcet platform ~task_type ~kind)))
      ~wcpc:(table (Library.wcpc platform))
      ~comm:(Library.comm platform) ()
  in
  let hotspot = hotspot pes in
  List.iter
    (fun graph ->
      match coolest ~graph ~lib ~pes ~hotspot with
      | None -> Alcotest.failf "%s: the serial schedule misses" (Graph.name graph)
      | Some { peak = peak, _; mean = mean, _ } ->
          List.iter
            (fun policy ->
              List.iter
                (fun (what, s) ->
                  let at =
                    Printf.sprintf "%s/%s %s" (Graph.name graph) (Policy.name policy)
                      what
                  in
                  let r = Metrics.thermal_report s ~hotspot in
                  Alcotest.(check (float 0.0)) (at ^ ": peak") peak r.Metrics.max_temp;
                  Alcotest.(check (float 0.0)) (at ^ ": average") mean
                    r.Metrics.avg_temp)
                (list_sched policy ~graph ~lib ~pes))
            Policy.all)
    graphs

(* Two independent tasks of one type on std2, far from the deadline: split
   over both PEs they finish soonest and add twice the power; in a row on
   one PE they are coolest on both metrics, on whichever PE is cooler. *)
let test_serial_is_coolest () =
  let lib = Catalog.platform_library () and pes = Catalog.platform_instances 2 in
  let hotspot = hotspot pes in
  let b = Graph.builder ~name:"pair" ~deadline:1000.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:0 () in
  let graph = Graph.build b in
  let w = Library.wcet lib ~task_type:0 ~kind:0 in
  let energy = Library.energy lib ~task_type:0 ~kind:0 in
  let report (pe0, s0) (pe1, s1) =
    let entry task pe start =
      { Schedule.task; pe; start; finish = start +. w; energy }
    in
    Metrics.thermal_report ~hotspot
      (Schedule.make ~graph ~pes ~entries:[| entry t0 pe0 s0; entry t1 pe1 s1 |])
  in
  let serial = List.map (fun pe -> report (pe, 0.0) (pe, w)) [ 0; 1 ] in
  let split = report (0, 0.0) (1, 0.0) in
  let lowest f = List.fold_left (fun m r -> Float.min m (f r)) infinity serial in
  let peak = lowest (fun r -> r.Metrics.max_temp)
  and mean = lowest (fun r -> r.Metrics.avg_temp) in
  Alcotest.(check bool) "the split is hotter" true
    (split.Metrics.max_temp > peak && split.Metrics.avg_temp > mean);
  match coolest ~graph ~lib ~pes ~hotspot with
  | None -> Alcotest.fail "no schedule meets the deadline"
  | Some { peak = p, _; mean = m, _ } ->
      Alcotest.(check (float 0.0)) "peak" peak p;
      Alcotest.(check (float 0.0)) "average" mean m

(* The oracle's coolest schedules are valid, meet the deadline and reach
   the temperatures it reports. *)
let test_witnesses () =
  List.iter
    (fun (pname, (lib, _, hotspot), cases) ->
      List.iter
        (fun (graph, oracle) ->
          let at what = Printf.sprintf "%s/%s %s" pname (Graph.name graph) what in
          match oracle with
          | None -> Alcotest.failf "%s" (at "has no deadline-meeting schedule")
          | Some { peak = peak, s_peak; mean = mean, s_mean } ->
              List.iter
                (fun (what, temp, s, metric) ->
                  Alcotest.(check int) (at (what ^ " violations")) 0
                    (List.length (Schedule.validate ~lib s));
                  Alcotest.(check bool) (at (what ^ " meets")) true
                    (Schedule.meets_deadline s);
                  Alcotest.(check (float 0.0)) (at what) temp
                    (metric (Metrics.thermal_report s ~hotspot)))
                [
                  ("peak", peak, s_peak, fun r -> r.Metrics.max_temp);
                  ("average", mean, s_mean, fun r -> r.Metrics.avg_temp);
                ])
        cases)
    thermal_cases

(* The oracle evaluates only each assignment's longest deadline-meeting
   makespan. Evaluating every deadline-meeting schedule instead, with no
   branch cut, must find the same lowest temperatures. *)
let test_longest_is_coolest () =
  List.iter
    (fun (pname, (lib, pes, hotspot), cases) ->
      List.iter
        (fun (graph, oracle) ->
          let n = Graph.n_tasks graph in
          let peak = ref infinity and mean = ref infinity in
          explore ~symmetric:false
            ~leaf:(fun ~pe_of ~start ~finish ->
              if meets graph (makespan_of finish) then begin
                let entries =
                  Array.init n (fun task ->
                      let pe = pe_of.(task) in
                      let kind = pes.(pe).Pe.kind.Pe.kind_id in
                      { Schedule.task; pe; start = start.(task);
                        finish = finish.(task);
                        energy =
                          Library.energy lib
                            ~task_type:(Graph.task graph task).Task.task_type ~kind })
                in
                let r =
                  Metrics.thermal_report ~hotspot (Schedule.make ~graph ~pes ~entries)
                in
                peak := Float.min !peak r.Metrics.max_temp;
                mean := Float.min !mean r.Metrics.avg_temp
              end)
            ~graph ~lib ~pes ();
          let at what = Printf.sprintf "%s/%s %s" pname (Graph.name graph) what in
          match oracle with
          | None -> Alcotest.failf "%s" (at "has no deadline-meeting schedule")
          | Some { peak = p, _; mean = m, _ } ->
              Alcotest.(check (float 0.0)) (at "peak") !peak p;
              Alcotest.(check (float 0.0)) (at "average") !mean m)
        cases)
    thermal_cases

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
      ( "temperature",
        [
          Alcotest.test_case "no policy cooler on std2" `Quick
            (test_no_policy_cooler "std2");
          Alcotest.test_case "no policy cooler on std3" `Quick
            (test_no_policy_cooler "std3");
          Alcotest.test_case "no policy cooler on biglittle2" `Quick
            (test_no_policy_cooler "biglittle2");
          Alcotest.test_case "one PE: every policy at the oracle" `Quick
            test_one_pe_anchor;
          Alcotest.test_case "serial pair is coolest" `Quick test_serial_is_coolest;
          Alcotest.test_case "witnesses" `Quick test_witnesses;
          Alcotest.test_case "longest makespan is coolest" `Quick
            test_longest_is_coolest;
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
