module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm

type entry = {
  task : Task.id;
  pe : int;
  start : float;
  finish : float;
  energy : float;
}

type t = {
  graph : Graph.t;
  pes : Pe.inst array;
  entries : entry array;
  makespan : float;
}

let make ~graph ~pes ~entries =
  let n = Graph.n_tasks graph in
  if Array.length entries <> n then
    invalid_arg "Schedule.make: entries must cover every task";
  Array.iteri
    (fun i e ->
      if e.task <> i then invalid_arg "Schedule.make: entries must be indexed by task id";
      if e.pe < 0 || e.pe >= Array.length pes then
        invalid_arg "Schedule.make: unknown PE")
    entries;
  let makespan = Array.fold_left (fun acc e -> Float.max acc e.finish) 0.0 entries in
  { graph; pes; entries; makespan }

let entry t id = t.entries.(id)
let n_pes t = Array.length t.pes

let tasks_on_pe t pe =
  Array.to_list t.entries
  |> List.filter (fun e -> e.pe = pe)
  |> List.sort (fun a b -> compare (a.start, a.task) (b.start, b.task))

let meets_deadline t = t.makespan <= Graph.deadline t.graph +. 1e-9

type violation =
  | Precedence of Graph.edge * string
  | Pe_overlap of int * Task.id * Task.id
  | Negative_time of Task.id
  | Bad_duration of Task.id

let validate ~lib t =
  let violations = ref [] in
  let comm = Library.comm lib in
  (* Times and durations. Each check is negated, so that NaN fails it. *)
  Array.iter
    (fun e ->
      if not (e.start >= -1e-9 && e.finish >= e.start) then
        violations := Negative_time e.task :: !violations;
      let tt = (Graph.task t.graph e.task).Task.task_type in
      let kind = t.pes.(e.pe).Pe.kind.Pe.kind_id in
      let wcet = Library.wcet lib ~task_type:tt ~kind in
      if not (Float.abs (e.finish -. e.start -. wcet) <= 1e-6) then
        violations := Bad_duration e.task :: !violations)
    t.entries;
  (* Precedence + communication. *)
  List.iter
    (fun ({ Graph.src; dst; data } as edge) ->
      let p = t.entries.(src) and c = t.entries.(dst) in
      let delay = Comm.delay_between comm ~src:p.pe ~dst:c.pe ~data in
      if not (c.start +. 1e-6 >= p.finish +. delay) then
        violations := Precedence (edge, "consumer starts before data arrives") :: !violations)
    (Graph.edges t.graph);
  (* PE exclusivity. *)
  for pe = 0 to n_pes t - 1 do
    let rec scan = function
      | a :: (b :: _ as rest) ->
          if not (b.start +. 1e-9 >= a.finish) then
            violations := Pe_overlap (pe, a.task, b.task) :: !violations;
          scan rest
      | [ _ ] | [] -> ()
    in
    scan (tasks_on_pe t pe)
  done;
  List.rev !violations

let pp_violation ppf = function
  | Precedence ({ Graph.src; dst; _ }, why) ->
      Format.fprintf ppf "precedence %d->%d: %s" src dst why
  | Pe_overlap (pe, a, b) -> Format.fprintf ppf "PE%d overlap: tasks %d and %d" pe a b
  | Negative_time task -> Format.fprintf ppf "task %d has negative/inverted times" task
  | Bad_duration task ->
      Format.fprintf ppf "task %d duration disagrees with library WCET" task

let pp ppf t =
  Format.fprintf ppf "@[<v>%s on %d PEs, makespan %.1f (deadline %.0f)@,"
    (Graph.name t.graph) (n_pes t) t.makespan (Graph.deadline t.graph);
  for pe = 0 to n_pes t - 1 do
    Format.fprintf ppf "  %a:" Pe.pp_inst t.pes.(pe);
    List.iter
      (fun e -> Format.fprintf ppf " [%d: %.0f-%.0f]" e.task e.start e.finish)
      (tasks_on_pe t pe);
    Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
