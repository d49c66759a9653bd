module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Hotspot = Tats_thermal.Hotspot

type level = { name : string; scale : float; power_factor : float }

let make_level ~name ~scale ~power_factor =
  if scale <= 0.0 || scale > 1.0 then invalid_arg "Dvs.make_level: scale not in (0,1]";
  if power_factor <= 0.0 || power_factor > 1.0 then
    invalid_arg "Dvs.make_level: power factor not in (0,1]";
  { name; scale; power_factor }

let cubic name scale = make_level ~name ~scale ~power_factor:(scale ** 3.0)

let default_levels =
  [ cubic "1.00V" 1.0; cubic "0.85V" 0.85; cubic "0.70V" 0.70; cubic "0.55V" 0.55 ]

type plan = {
  base : Schedule.t;
  levels : level array;
  finish : float array;
  makespan : float;
}

let base_wcet ~lib (s : Schedule.t) task =
  let tt = (Graph.task s.Schedule.graph task).Task.task_type in
  let kind = s.Schedule.pes.(s.Schedule.entries.(task).Schedule.pe).Pe.kind.Pe.kind_id in
  Library.wcet lib ~task_type:tt ~kind

(* The latest moment [task] may finish without perturbing anything that was
   scheduled after it: data successors (minus bus delay) and the next task
   on the same PE all keep their original start times. *)
let latest_finish ~lib (s : Schedule.t) task =
  let comm = Library.comm lib in
  let entry = s.Schedule.entries.(task) in
  let deadline = Graph.deadline s.Schedule.graph in
  let from_successors =
    List.fold_left
      (fun acc (succ, data) ->
        let se = s.Schedule.entries.(succ) in
        let delay = Comm.delay_between comm ~src:entry.Schedule.pe ~dst:se.Schedule.pe ~data in
        Float.min acc (se.Schedule.start -. delay))
      deadline
      (Graph.succs s.Schedule.graph task)
  in
  let from_pe_order =
    List.fold_left
      (fun acc (e : Schedule.entry) ->
        if e.Schedule.start >= entry.Schedule.finish -. 1e-9 && e.Schedule.task <> task
        then Float.min acc e.Schedule.start
        else acc)
      infinity
      (Schedule.tasks_on_pe s entry.Schedule.pe)
  in
  Float.min from_successors from_pe_order

let reclaim ?(levels = default_levels) ~lib (s : Schedule.t) =
  if levels = [] then invalid_arg "Dvs.reclaim: no levels";
  Tats_util.Trace.with_span "dvs.reclaim"
    ~args:[ ("tasks", Tats_util.Trace.Int (Graph.n_tasks s.Schedule.graph)) ]
  @@ fun () ->
  let sorted = List.sort (fun a b -> compare b.scale a.scale) levels in
  let fastest = List.hd sorted in
  if fastest.scale < 1.0 -. 1e-9 then
    invalid_arg "Dvs.reclaim: the level ladder must include full speed";
  let n = Graph.n_tasks s.Schedule.graph in
  let chosen = Array.make n fastest in
  let finish = Array.map (fun (e : Schedule.entry) -> e.Schedule.finish) s.Schedule.entries in
  for task = 0 to n - 1 do
    let entry = s.Schedule.entries.(task) in
    let wcet = base_wcet ~lib s task in
    let budget = latest_finish ~lib s task -. entry.Schedule.start in
    (* Slowest level whose stretched WCET still fits the budget. *)
    let best =
      List.fold_left
        (fun acc level ->
          if wcet /. level.scale <= budget +. 1e-9 then
            match acc with
            | Some l when l.scale <= level.scale -> acc
            | Some _ | None -> Some level
          else acc)
        None sorted
    in
    let level = match best with Some l -> l | None -> fastest in
    chosen.(task) <- level;
    finish.(task) <- entry.Schedule.start +. (wcet /. level.scale)
  done;
  let makespan = Array.fold_left Float.max 0.0 finish in
  { base = s; levels = chosen; finish; makespan }

let task_energy plan task =
  let level = plan.levels.(task) in
  let base = plan.base.Schedule.entries.(task).Schedule.energy in
  base *. level.power_factor /. level.scale

let total_energy plan =
  let n = Array.length plan.levels in
  let acc = ref 0.0 in
  for task = 0 to n - 1 do
    acc := !acc +. task_energy plan task
  done;
  !acc

let energy_saving_ratio plan =
  let original = Metrics.total_task_energy plan.base in
  if original <= 0.0 then 0.0 else 1.0 -. (total_energy plan /. original)

let pe_average_powers plan =
  let s = plan.base in
  let horizon = Float.max plan.makespan 1e-9 in
  let energy = Array.make (Schedule.n_pes s) 0.0 in
  Array.iteri
    (fun task (e : Schedule.entry) ->
      energy.(e.Schedule.pe) <- energy.(e.Schedule.pe) +. task_energy plan task)
    s.Schedule.entries;
  Array.mapi
    (fun pe e -> (e /. horizon) +. s.Schedule.pes.(pe).Pe.kind.Pe.idle_power)
    energy

let thermal_report ?leakage plan ~hotspot =
  let s = plan.base in
  let horizon = Float.max plan.makespan 1e-9 in
  let dynamic = Array.make (Schedule.n_pes s) 0.0 in
  Array.iteri
    (fun task (e : Schedule.entry) ->
      dynamic.(e.Schedule.pe) <-
        dynamic.(e.Schedule.pe) +. (task_energy plan task /. horizon))
    s.Schedule.entries;
  let idle =
    Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) s.Schedule.pes
  in
  Metrics.report_of_powers ?leakage hotspot ~dynamic ~idle

type violation =
  | Deadline_exceeded of float
  | Precedence_broken of Graph.edge
  | Pe_order_broken of int * Task.id * Task.id

let validate plan ~lib =
  let s = plan.base in
  let comm = Library.comm lib in
  let violations = ref [] in
  (* Only a miss the plan *introduces* is its fault: a base schedule that
     already overran its deadline is inherited, not caused. *)
  let limit = Float.max (Graph.deadline s.Schedule.graph) s.Schedule.makespan in
  if plan.makespan > limit +. 1e-6 then
    violations := Deadline_exceeded plan.makespan :: !violations;
  List.iter
    (fun ({ Graph.src; dst; data } as edge) ->
      let pe_src = s.Schedule.entries.(src).Schedule.pe in
      let dst_entry = s.Schedule.entries.(dst) in
      let delay = Comm.delay_between comm ~src:pe_src ~dst:dst_entry.Schedule.pe ~data in
      if dst_entry.Schedule.start +. 1e-6 < plan.finish.(src) +. delay then
        violations := Precedence_broken edge :: !violations)
    (Graph.edges s.Schedule.graph);
  for pe = 0 to Schedule.n_pes s - 1 do
    let rec scan = function
      | (a : Schedule.entry) :: (b :: _ as rest) ->
          if b.Schedule.start +. 1e-6 < plan.finish.(a.Schedule.task) then
            violations := Pe_order_broken (pe, a.Schedule.task, b.Schedule.task) :: !violations;
          scan rest
      | [ _ ] | [] -> ()
    in
    scan (Schedule.tasks_on_pe s pe)
  done;
  List.rev !violations
