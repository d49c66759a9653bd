module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Hotspot = Tats_thermal.Hotspot
module Rcmodel = Tats_thermal.Rcmodel
module Package = Tats_thermal.Package
module Transient = Tats_thermal.Transient

type params = {
  trigger : float;
  hysteresis : float;
  throttle_factor : float;
  time_unit : float;
  dt : float;
  passes : int;
}

let default_params =
  {
    trigger = 85.0;
    hysteresis = 3.0;
    throttle_factor = 0.5;
    time_unit = 1e-3;
    dt = 1.0;
    passes = 1;
  }

type result = {
  finish : float array;
  makespan : float;
  peak_temperature : float;
  throttled_fraction : float;
  meets_deadline : bool;
}

let simulate ?(params = default_params) ~lib ~hotspot (s : Schedule.t) =
  if params.throttle_factor <= 0.0 || params.throttle_factor >= 1.0 then
    invalid_arg "Dtm.simulate: throttle factor must be in (0,1)";
  if params.dt <= 0.0 || params.time_unit <= 0.0 then
    invalid_arg "Dtm.simulate: bad time parameters";
  if params.hysteresis < 0.0 then invalid_arg "Dtm.simulate: negative hysteresis";
  if not (Float.is_finite params.trigger) then
    invalid_arg "Dtm.simulate: trigger must be finite";
  Tats_util.Trace.with_span "dtm.simulate" @@ fun () ->
  let n_pes = Schedule.n_pes s in
  if Hotspot.n_blocks hotspot <> n_pes then
    invalid_arg "Dtm.simulate: hotspot must have one block per PE";
  let graph = s.Schedule.graph in
  let n = Graph.n_tasks graph in
  let comm = Library.comm lib in
  let model = Hotspot.model hotspot in
  (* The event-driven engine's exact stepper: the same factored
     (C/dt + A), the same operand order — bit-identical to the in-line
     backward-Euler stepper this loop originally carried. *)
  let engine = Transient.create (Transient.of_model model) in
  let dt_seconds = params.dt *. params.time_unit in
  (* Per-PE task queues, in the schedule's start order. *)
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
  if params.passes < 1 then invalid_arg "Dtm.simulate: need at least one pass";
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) s.Schedule.pes in
  (* Thermal and DTM state persist across passes; execution state resets. *)
  let temps = Array.make (Rcmodel.n_nodes model) (Rcmodel.package model).Package.ambient in
  let throttled = Array.make n_pes false in
  let peak = ref (Rcmodel.package model).Package.ambient in
  let last = ref None in
  for _pass = 1 to params.passes do
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
    (* Hard stop: even fully throttled, everything finishes within
       total-wcet / factor plus the schedule span; 20x makespan is generous. *)
    let horizon = 20.0 *. Float.max s.Schedule.makespan 1.0 in
    while !done_count < n && !time < horizon do
      (* Which task runs on each PE this step? *)
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
      (* Update DTM state from current temperatures. *)
      for pe = 0 to n_pes - 1 do
        let t = temps.(pe) in
        if t > params.trigger then throttled.(pe) <- true
        else if t < params.trigger -. params.hysteresis then throttled.(pe) <- false
      done;
      (* Advance progress and accumulate power. *)
      let power = Array.copy idle in
      Array.iteri
        (fun pe task ->
          match task with
          | None -> ()
          | Some task ->
              let rate = if throttled.(pe) then params.throttle_factor else 1.0 in
              busy_time := !busy_time +. params.dt;
              if throttled.(pe) then throttled_time := !throttled_time +. params.dt;
              (* Throttled PEs also draw proportionally less dynamic power. *)
              power.(pe) <- power.(pe) +. (wcpc_of task *. rate);
              progress.(task) <- progress.(task) +. (rate *. params.dt);
              if progress.(task) >= wcet_of task -. 1e-9 then begin
                finish.(task) <- !time +. params.dt;
                incr done_count;
                queues.(pe) := List.tl !(queues.(pe))
              end)
        running;
      Transient.step engine ~dt:dt_seconds ~power temps;
      for pe = 0 to n_pes - 1 do
        peak := Float.max !peak temps.(pe)
      done;
      time := !time +. params.dt
    done;
    if !done_count < n then
      failwith "Dtm.simulate: horizon exceeded (throttling livelock?)";
    let throttled_fraction =
      if !busy_time > 0.0 then !throttled_time /. !busy_time else 0.0
    in
    last := Some (finish, throttled_fraction)
  done;
  let finish, throttled_fraction =
    match !last with Some r -> r | None -> assert false
  in
  let makespan = Array.fold_left Float.max 0.0 finish in
  {
    finish;
    makespan;
    peak_temperature = !peak;
    throttled_fraction;
    meets_deadline = makespan <= Graph.deadline graph +. 1e-6;
  }
