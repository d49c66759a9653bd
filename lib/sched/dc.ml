module Task = Tats_taskgraph.Task
module Graph = Tats_taskgraph.Graph
module Criticality = Tats_taskgraph.Criticality
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm

let static_criticality lib g =
  let node_weight (task : Task.t) = Library.wcet_avg lib ~task_type:task.Task.task_type in
  let comm = Library.comm lib in
  let edge_weight ({ Graph.data; _ } : Graph.edge) =
    (* Mapping is unknown at SC time; average the same-PE (free) and
       cross-PE (bus) cases. *)
    Comm.delay comm ~data ~same_pe:false /. 2.0
  in
  Criticality.compute ~edge_weight ~node_weight g

let cost_task_power lib ~task_type ~kind =
  Library.wcpc lib ~task_type ~kind /. Library.max_wcpc lib

let cost_pe_average_power lib ~pe_energy ~task_energy ~finish =
  if finish <= 0.0 then 0.0
  else (pe_energy +. task_energy) /. finish /. Library.max_wcpc lib

let cost_task_energy lib ~task_type ~kind =
  Library.energy lib ~task_type ~kind /. Library.max_energy lib

let cost_temperature ~ambient ~avg_temp = (avg_temp -. ambient) /. 100.0

(* The paper's thermal inquiry, served by the influence-matrix engine: the
   cumulating power of every PE (the per-step [base]) plus the consuming
   power the candidate task would incur on the candidate PE. Leakage
   coupling matters here — in a purely linear network the average
   temperature is nearly independent of which PE receives the task, and
   the inquiry could not discriminate. *)
let cost_thermal ~engine ~base ~idle ~finish ~pe ~task_power =
  let horizon = Float.max finish 1e-9 in
  let temps =
    Tats_thermal.Inquiry.query_delta engine ~base ~horizon ~pe
      ~extra:task_power ~idle
  in
  cost_temperature
    ~ambient:(Tats_thermal.Inquiry.package engine).Tats_thermal.Package.ambient
    ~avg_temp:(Tats_util.Stats.mean temps)

let part ~sc ~wcet ~start = sc -. wcet -. start
let weigh ~part ~cost ~weight = part -. (weight *. cost)
let value ~sc ~wcet ~start ~cost ~weight = weigh ~part:(part ~sc ~wcet ~start) ~cost ~weight
