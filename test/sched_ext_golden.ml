(* The sched_ext golden: a fingerprint of the bus-contention and periodic
   schedulers, one line per fixture. Each line carries readable makespan and
   energy figures plus the MD5 of every entry (and bus transfer, adaptive
   weight and validation verdict) printed with %h, so a drift in the last
   bit of any start or finish time changes the line.

   Shared by test/capture_goldens.ml (the `sched_ext` mode, which writes
   test/goldens/sched_ext.golden) and test/test_integration.ml (which diffs
   against it). *)

module Graph = Tats_taskgraph.Graph
module Benchmarks = Tats_taskgraph.Benchmarks
module Pe = Tats_techlib.Pe
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Bus_sched = Tats_sched.Bus_sched
module Periodic = Tats_sched.Periodic

let lib = Catalog.platform_library ()

let hotspot pes =
  Hotspot.create
    (Grid.layout
       (Array.map
          (fun (i : Pe.inst) ->
            Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
          pes))

let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf))

let bus_line ~bench ~n_pes ~policy =
  let graph = Benchmarks.load bench in
  let r =
    Bus_sched.run ~graph ~lib ~pes:(Catalog.platform_instances n_pes) ~policy ()
  in
  let s = r.Bus_sched.schedule in
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (e : Schedule.entry) ->
      Printf.bprintf buf "%d %d %h %h %h\n" e.Schedule.task e.Schedule.pe
        e.Schedule.start e.Schedule.finish e.Schedule.energy)
    s.Schedule.entries;
  List.iter
    (fun (t : Bus_sched.transfer) ->
      Printf.bprintf buf "%d>%d %h %h %h\n" t.Bus_sched.edge.Graph.src
        t.Bus_sched.edge.Graph.dst t.Bus_sched.edge.Graph.data
        t.Bus_sched.bus_start t.Bus_sched.bus_finish)
    r.Bus_sched.transfers;
  let problems = Bus_sched.validate r ~lib in
  List.iter (Printf.bprintf buf "%s\n") problems;
  Printf.sprintf
    "bus %s pes=%d %-8s makespan=%.3f energy=%.3f transfers=%d problems=%d md5=%s"
    (Graph.name graph) n_pes (Policy.name policy) s.Schedule.makespan
    (Array.fold_left (fun acc e -> acc +. e.Schedule.energy) 0.0 s.Schedule.entries)
    (List.length r.Bus_sched.transfers)
    (List.length problems) (digest buf)

let chain ~name ~deadline ~types =
  let b = Graph.builder ~name ~deadline in
  let ids = List.map (fun task_type -> Graph.add_task b ~task_type ()) types in
  let rec link = function
    | a :: (c :: _ as rest) ->
        Graph.add_edge b ~data:16.0 a c;
        link rest
    | [ _ ] | [] -> ()
  in
  link ids;
  b

(* test_periodic's two apps. *)
let pipe_burst () =
  let pipe = Graph.build (chain ~name:"pipe" ~deadline:400.0 ~types:[ 0; 1; 2 ]) in
  let burst =
    let b = Graph.builder ~name:"burst" ~deadline:500.0 in
    let t0 = Graph.add_task b ~task_type:3 () in
    let t1 = Graph.add_task b ~task_type:4 () in
    let t2 = Graph.add_task b ~task_type:5 () in
    Graph.add_edge b ~data:16.0 t0 t1;
    Graph.add_edge b ~data:16.0 t0 t2;
    Graph.build b
  in
  [
    Periodic.make_app ~graph:pipe ~period:400.0;
    Periodic.make_app ~graph:burst ~period:600.0;
  ]

(* examples/periodic_apps.ml's sensor pipeline next to Bm1. *)
let sensor_bm1 () =
  let sensor =
    Graph.build (chain ~name:"sensor-pipeline" ~deadline:450.0 ~types:[ 6; 7; 8 ])
  in
  [
    Periodic.make_app ~graph:sensor ~period:500.0;
    Periodic.make_app ~graph:(Benchmarks.load 0) ~period:1000.0;
  ]

(* A benchmark at its deadline rounded up to a multiple of 100, plus a
   3-task side chain running twice per benchmark period. *)
let bench_side bench () =
  let graph = Benchmarks.load bench in
  let period = 100.0 *. Float.ceil (Graph.deadline graph /. 100.0) in
  let side =
    Graph.build (chain ~name:"side" ~deadline:(period /. 2.0) ~types:[ 0; 1; 2 ])
  in
  [
    Periodic.make_app ~graph ~period;
    Periodic.make_app ~graph:side ~period:(period /. 2.0);
  ]

let app_sets =
  [
    ("pipe+burst", pipe_burst);
    ("sensor+Bm1", sensor_bm1);
    ("Bm1+side", bench_side 0);
    ("Bm2+side", bench_side 1);
    ("Bm3+side", bench_side 2);
    ("Bm4+side", bench_side 3);
  ]

let periodic_line ~set ~apps ~n_pes ~policy ~adaptive =
  let pes = Catalog.platform_instances n_pes in
  let hotspot = hotspot pes in
  let t, weight =
    if adaptive then
      let t, w = Periodic.schedule_adaptive ~hotspot ~apps ~lib ~pes ~policy () in
      (t, Some w.Policy.cost_weight)
    else (Periodic.schedule ~policy ~hotspot ~apps ~lib ~pes (), None)
  in
  let buf = Buffer.create 4096 in
  Option.iter (Printf.bprintf buf "weight %h\n") weight;
  Array.iter
    (fun (e : Periodic.entry) ->
      let j = e.Periodic.job in
      Printf.bprintf buf "%d.%d.%d %d %h %h %h\n" j.Periodic.app j.Periodic.instance
        j.Periodic.task e.Periodic.pe e.Periodic.start e.Periodic.finish
        e.Periodic.energy)
    t.Periodic.entries;
  let violations = List.length (Periodic.validate t ~lib) in
  Printf.bprintf buf "violations %d\n" violations;
  let last =
    Array.fold_left (fun acc e -> Float.max acc e.Periodic.finish) 0.0 t.Periodic.entries
  in
  Printf.sprintf
    "periodic %s pes=%d %-8s %-8s jobs=%d last=%.3f energy=%.3f deadlines=%b \
     violations=%d md5=%s"
    set n_pes (Policy.name policy)
    (if adaptive then "adaptive" else "schedule")
    (Array.length t.Periodic.entries)
    last (Periodic.total_energy t)
    (Periodic.meets_all_deadlines t)
    violations (digest buf)

let render () =
  let non_thermal = List.filter (fun p -> p <> Policy.Thermal_aware) Policy.all in
  let bus =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun n_pes ->
            List.map (fun policy -> bus_line ~bench ~n_pes ~policy) non_thermal)
          [ 1; 2; 4 ])
      [ 0; 1; 2; 3 ]
  in
  let periodic =
    List.concat_map
      (fun (set, apps) ->
        List.concat_map
          (fun n_pes ->
            List.concat_map
              (fun policy ->
                List.map
                  (fun adaptive ->
                    periodic_line ~set ~apps:(apps ()) ~n_pes ~policy ~adaptive)
                  [ false; true ])
              Policy.all)
          [ 2; 4 ])
      app_sets
  in
  String.concat "\n" (bus @ periodic) ^ "\n"
