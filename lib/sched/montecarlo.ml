module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Hotspot = Tats_thermal.Hotspot
module Rng = Tats_util.Rng
module Stats = Tats_util.Stats
module Pool = Tats_util.Pool

let m_runs = Tats_util.Metricsreg.counter "montecarlo.runs"

type sampler = { min_fraction : float; max_fraction : float }

let default_sampler = { min_fraction = 0.6; max_fraction = 1.0 }

type stats = {
  runs : int;
  makespan_mean : float;
  makespan_p95 : float;
  makespan_max : float;
  deadline_miss_rate : float;
  peak_temp_mean : float;
  peak_temp_max : float;
}

(* The parts of re-timing that do not depend on the sampled durations:
   per-PE predecessor links and the original start order. Shared read-only
   by every replication. *)
type retime_plan = { prev_on_pe : int option array; order : int array }

let plan_retime (s : Schedule.t) =
  let n = Graph.n_tasks s.Schedule.graph in
  let prev_on_pe = Array.make n None in
  for pe = 0 to Schedule.n_pes s - 1 do
    let rec link = function
      | (a : Schedule.entry) :: (b :: _ as rest) ->
          prev_on_pe.(b.Schedule.task) <- Some a.Schedule.task;
          link rest
      | [ _ ] | [] -> ()
    in
    link (Schedule.tasks_on_pe s pe)
  done;
  (* The original start order is consistent with both constraint kinds, so
     one pass in that order suffices. *)
  let order =
    let ids = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        compare s.Schedule.entries.(a).Schedule.start
          s.Schedule.entries.(b).Schedule.start)
      ids;
    ids
  in
  { prev_on_pe; order }

(* Re-time the schedule under scaled durations, keeping mapping and per-PE
   order: each task starts when its predecessors' data has arrived and the
   previous task on its PE (in the original order) has finished. *)
let retime_with plan (s : Schedule.t) ~lib ~durations =
  let graph = s.Schedule.graph in
  let comm = Library.comm lib in
  let n = Graph.n_tasks graph in
  let finish = Array.make n nan in
  Array.iter
    (fun task ->
      let pe = s.Schedule.entries.(task).Schedule.pe in
      let data_ready =
        List.fold_left
          (fun acc (pred, data) ->
            let delay =
              Comm.delay_between comm ~src:s.Schedule.entries.(pred).Schedule.pe
                ~dst:pe ~data
            in
            Float.max acc (finish.(pred) +. delay))
          0.0 (Graph.preds graph task)
      in
      let pe_free =
        match plan.prev_on_pe.(task) with None -> 0.0 | Some p -> finish.(p)
      in
      finish.(task) <- Float.max data_ready pe_free +. durations.(task))
    plan.order;
  finish

let analyze ?(sampler = default_sampler) ?(runs = 200) ?pool ~seed ~lib
    ~hotspot (s : Schedule.t) =
  if sampler.min_fraction <= 0.0 || sampler.max_fraction < sampler.min_fraction then
    invalid_arg "Montecarlo.analyze: bad sampler bounds";
  if runs < 1 then invalid_arg "Montecarlo.analyze: need at least one run";
  if Hotspot.n_blocks hotspot <> Schedule.n_pes s then
    invalid_arg "Montecarlo.analyze: hotspot must have one block per PE";
  let pool = match pool with Some p -> p | None -> Pool.default () in
  Tats_util.Trace.with_span "montecarlo.analyze"
    ~args:[ ("runs", Tats_util.Trace.Int runs) ]
  @@ fun () ->
  Tats_util.Metricsreg.add m_runs runs;
  let graph = s.Schedule.graph in
  let n = Graph.n_tasks graph in
  let rng = Rng.create seed in
  let deadline = Graph.deadline graph in
  let idle =
    Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) s.Schedule.pes
  in
  (* All randomness is drawn here, sequentially, in the exact order the
     sequential implementation consumed it — the sample stream is a pure
     function of [seed], independent of the pool size. *)
  let samples =
    Array.init runs (fun _ ->
        Array.init n (fun _ ->
            Rng.uniform rng sampler.min_fraction sampler.max_fraction))
  in
  let plan = plan_retime s in
  (* Force the engine's influence matrix before fanning out; its leakage
     queries are stateless, so each replication's peak temperature is a
     pure function of its sampled fractions. *)
  ignore (Hotspot.inquiry hotspot);
  let evaluate fractions =
    let durations =
      Array.mapi
        (fun task (e : Schedule.entry) ->
          (e.Schedule.finish -. e.Schedule.start) *. fractions.(task))
        s.Schedule.entries
    in
    let finish = retime_with plan s ~lib ~durations in
    let makespan = Array.fold_left Float.max 0.0 finish in
    let missed = makespan > deadline +. 1e-9 in
    (* Energy scales with actual duration (constant power while running). *)
    let dynamic = Array.make (Schedule.n_pes s) 0.0 in
    Array.iteri
      (fun task (e : Schedule.entry) ->
        dynamic.(e.Schedule.pe) <-
          dynamic.(e.Schedule.pe)
          +. (e.Schedule.energy *. fractions.(task) /. Float.max makespan 1e-9))
      s.Schedule.entries;
    let temps = Hotspot.inquire_with_leakage hotspot ~dynamic ~idle in
    (makespan, missed, Stats.max temps)
  in
  let results = Pool.parallel_map pool evaluate samples in
  let makespans = Array.map (fun (m, _, _) -> m) results in
  let peaks = Array.map (fun (_, _, p) -> p) results in
  let misses =
    Array.fold_left (fun acc (_, m, _) -> if m then acc + 1 else acc) 0 results
  in
  {
    runs;
    makespan_mean = Stats.mean makespans;
    makespan_p95 = Stats.percentile makespans 95.0;
    makespan_max = Stats.max makespans;
    deadline_miss_rate = float_of_int misses /. float_of_int runs;
    peak_temp_mean = Stats.mean peaks;
    peak_temp_max = Stats.max peaks;
  }
