module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Hotspot = Tats_thermal.Hotspot
module Rcmodel = Tats_thermal.Rcmodel
module Transient = Tats_thermal.Transient

type interval = { pe : int; start : float; finish : float; power : float }

(* PE exclusivity means at most one interval covers (pe, t); the fold
   mirrors Metrics.power_profile's operand order (idle +. running). *)
let power_at ~idle intervals t =
  Array.mapi
    (fun pe idle_w ->
      let running =
        List.fold_left
          (fun acc iv ->
            if iv.pe = pe && iv.start <= t && t < iv.finish then acc +. iv.power
            else acc)
          0.0 intervals
      in
      idle_w +. running)
    idle

let profile_of_intervals ~duration ~time_unit ~idle intervals =
  if duration <= 0.0 then
    invalid_arg "Replay.profile_of_intervals: duration must be positive";
  if time_unit <= 0.0 then
    invalid_arg "Replay.profile_of_intervals: time_unit must be positive";
  let n_pes = Array.length idle in
  List.iter
    (fun iv ->
      if iv.pe < 0 || iv.pe >= n_pes then
        invalid_arg "Replay.profile_of_intervals: interval on unknown PE")
    intervals;
  (* Breakpoints: every interval endpoint inside [0, duration), plus 0. *)
  let cuts =
    List.concat_map (fun iv -> [ iv.start; iv.finish ]) intervals
    |> List.cons 0.0
    |> List.filter (fun t -> t >= 0.0 && t < duration)
    |> List.sort_uniq Float.compare
  in
  (* No interval endpoint lies strictly inside a segment, so the power at
     its start is exact for the whole segment. *)
  Transient.profile ~duration:(duration *. time_unit)
    ~segments:
      (List.map (fun t -> (t *. time_unit, power_at ~idle intervals t)) cuts)

let of_schedule ?(time_unit = 1e-3) ~lib (s : Schedule.t) =
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) s.Schedule.pes in
  let wcpc (e : Schedule.entry) =
    let tt = (Graph.task s.Schedule.graph e.task).Task.task_type in
    Library.wcpc lib ~task_type:tt ~kind:s.Schedule.pes.(e.pe).Pe.kind.Pe.kind_id
  in
  let intervals =
    Array.to_list s.Schedule.entries
    |> List.map (fun (e : Schedule.entry) ->
           { pe = e.pe; start = e.start; finish = e.finish; power = wcpc e })
  in
  profile_of_intervals
    ~duration:(Float.max s.Schedule.makespan 1e-9)
    ~time_unit ~idle intervals

let peaks ?(periods = 50) ?dt ?(exact = false) ~hotspot profile =
  if periods < 2 then invalid_arg "Replay.peaks: need at least 2 periods";
  let model = Hotspot.model hotspot in
  let dt =
    match dt with
    | Some d -> d
    | None -> Transient.profile_duration profile /. 100.0
  in
  let engine = Transient.create (Transient.of_model model) in
  let t0 = Transient.initial_ambient model in
  let r = Transient.replay ~exact engine ~profile ~t0 ~dt ~periods in
  Array.sub r.Transient.last_period_peak 0 (Rcmodel.n_blocks model)
