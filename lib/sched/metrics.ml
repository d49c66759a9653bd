module Graph = Tats_taskgraph.Graph
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Hotspot = Tats_thermal.Hotspot
module Stats = Tats_util.Stats

let pe_energies (s : Schedule.t) =
  let acc = Array.make (Schedule.n_pes s) 0.0 in
  Array.iter (fun (e : Schedule.entry) -> acc.(e.pe) <- acc.(e.pe) +. e.energy) s.entries;
  acc

let total_task_energy (s : Schedule.t) =
  Array.fold_left (fun acc (e : Schedule.entry) -> acc +. e.energy) 0.0 s.entries

let total_comm_energy (s : Schedule.t) ~lib =
  let comm = Library.comm lib in
  List.fold_left
    (fun acc { Graph.src; dst; data } ->
      acc
      +. Comm.energy_between comm ~src:s.entries.(src).Schedule.pe
           ~dst:s.entries.(dst).Schedule.pe ~data)
    0.0
    (Graph.edges s.graph)

let total_power s ~lib =
  (total_task_energy s +. total_comm_energy s ~lib) /. Float.max s.makespan 1e-9

let pe_average_powers (s : Schedule.t) =
  let horizon = Float.max s.makespan 1e-9 in
  Array.mapi
    (fun pe energy -> (energy /. horizon) +. s.pes.(pe).Pe.kind.Pe.idle_power)
    (pe_energies s)

let utilizations (s : Schedule.t) =
  let horizon = Float.max s.makespan 1e-9 in
  let busy = Array.make (Schedule.n_pes s) 0.0 in
  Array.iter
    (fun (e : Schedule.entry) -> busy.(e.pe) <- busy.(e.pe) +. (e.finish -. e.start))
    s.entries;
  Array.map (fun b -> b /. horizon) busy

let utilization_spread s = Stats.spread (utilizations s)

type thermal_report = {
  pe_powers : float array;
  block_temps : float array;
  max_temp : float;
  avg_temp : float;
}

let report_of_powers ?(leakage = true) hotspot ~dynamic ~idle =
  if Hotspot.n_blocks hotspot <> Array.length dynamic then
    invalid_arg "Metrics.report_of_powers: hotspot must have one block per PE";
  let pe_powers = Array.mapi (fun i d -> d +. idle.(i)) dynamic in
  let block_temps =
    if leakage then Hotspot.inquire_with_leakage hotspot ~dynamic ~idle
    else Hotspot.query hotspot ~power:pe_powers
  in
  {
    pe_powers;
    block_temps;
    max_temp = Stats.max block_temps;
    avg_temp = Stats.mean block_temps;
  }

let thermal_report ?leakage (s : Schedule.t) ~hotspot =
  let horizon = Float.max s.makespan 1e-9 in
  let dynamic = Array.map (fun e -> e /. horizon) (pe_energies s) in
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) s.pes in
  report_of_powers ?leakage hotspot ~dynamic ~idle

type row = { total_power : float; max_temp : float; avg_temp : float }

let row ?leakage s ~lib ~hotspot =
  let r = thermal_report ?leakage s ~hotspot in
  { total_power = total_power s ~lib; max_temp = r.max_temp; avg_temp = r.avg_temp }

let pp_row ppf { total_power; max_temp; avg_temp } =
  Format.fprintf ppf "%6.2f W  %7.2f °C max  %7.2f °C avg" total_power max_temp avg_temp

let power_profile (s : Schedule.t) ~lib ~time =
  Array.init (Schedule.n_pes s) (fun pe ->
      let idle = s.pes.(pe).Pe.kind.Pe.idle_power in
      let running =
        Array.fold_left
          (fun acc (e : Schedule.entry) ->
            if e.pe = pe && e.start <= time && time < e.finish then
              let tt = (Graph.task s.graph e.task).Tats_taskgraph.Task.task_type in
              acc +. Library.wcpc lib ~task_type:tt ~kind:s.pes.(pe).Pe.kind.Pe.kind_id
            else acc)
          0.0 s.entries
      in
      idle +. running)

let transient_peak (s : Schedule.t) ~lib ~hotspot ?(time_unit = 1e-3) ?(periods = 50)
    ?dt () =
  if Hotspot.n_blocks hotspot <> Schedule.n_pes s then
    invalid_arg "Metrics.transient_peak: hotspot must have one block per PE";
  if periods < 2 then invalid_arg "Metrics.transient_peak: need at least 2 periods";
  let profile = Replay.of_schedule ~time_unit ~lib s in
  Replay.peaks ~periods ?dt ~hotspot profile

let makespan_lower_bound graph ~lib ~n_pes =
  if n_pes < 1 then invalid_arg "Metrics.makespan_lower_bound: no PEs";
  let kinds = Library.kinds lib in
  let best_wcet task_type =
    Array.fold_left
      (fun acc (k : Pe.kind) ->
        Float.min acc (Library.wcet lib ~task_type ~kind:k.Pe.kind_id))
      infinity kinds
  in
  let critical_path =
    Tats_taskgraph.Criticality.compute
      ~node_weight:(fun t -> best_wcet t.Tats_taskgraph.Task.task_type)
      graph
  in
  let path_bound = Array.fold_left Float.max 0.0 critical_path in
  let work =
    Array.fold_left
      (fun acc (t : Tats_taskgraph.Task.t) ->
        acc +. best_wcet t.Tats_taskgraph.Task.task_type)
      0.0 (Graph.tasks graph)
  in
  Float.max path_bound (work /. float_of_int n_pes)

let idle_energy (s : Schedule.t) =
  let busy = Array.make (Schedule.n_pes s) 0.0 in
  Array.iter
    (fun (e : Schedule.entry) -> busy.(e.pe) <- busy.(e.pe) +. (e.finish -. e.start))
    s.entries;
  let acc = ref 0.0 in
  Array.iteri
    (fun pe b ->
      acc := !acc +. (s.pes.(pe).Pe.kind.Pe.idle_power *. Float.max 0.0 (s.makespan -. b)))
    busy;
  !acc

let power_gating_saving (s : Schedule.t) ~break_even =
  if break_even < 0.0 then invalid_arg "Metrics.power_gating_saving: negative break-even";
  let acc = ref 0.0 in
  for pe = 0 to Schedule.n_pes s - 1 do
    let idle = s.pes.(pe).Pe.kind.Pe.idle_power in
    let gaps =
      let entries = Schedule.tasks_on_pe s pe in
      let rec scan cursor = function
        | [] -> [ s.makespan -. cursor ]
        | (e : Schedule.entry) :: rest ->
            (e.start -. cursor) :: scan e.finish rest
      in
      scan 0.0 entries
    in
    List.iter
      (fun gap -> if gap > break_even then acc := !acc +. (idle *. gap))
      gaps
  done;
  !acc
