module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Hotspot = Tats_thermal.Hotspot
module Rng = Tats_util.Rng
module Stats = Tats_util.Stats
module Pool = Tats_util.Pool
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg

let m_moves = Metricsreg.counter "sa_mapper.moves"

type objective = Makespan | Peak_temperature of Hotspot.t

type params = {
  initial_temperature : float;
  cooling : float;
  moves_per_temperature : int;
  min_temperature : float;
}

let default_params =
  {
    initial_temperature = 50.0;
    cooling = 0.93;
    moves_per_temperature = 60;
    min_temperature = 0.05;
  }

type result = {
  schedule : Schedule.t;
  cost : float;
  moves_tried : int;
  moves_accepted : int;
}

let decode ~graph ~lib ~pes ~assignment ~priority =
  let n = Graph.n_tasks graph in
  if Array.length assignment <> n || Array.length priority <> n then
    invalid_arg "Sa_mapper.decode: vector length mismatch";
  Array.iter
    (fun pe ->
      if pe < 0 || pe >= Array.length pes then
        invalid_arg "Sa_mapper.decode: assignment out of range")
    assignment;
  let comm = Library.comm lib in
  let entries = Array.make n None in
  let pe_avail = Array.make (Array.length pes) 0.0 in
  let unscheduled_preds = Array.init n (fun v -> List.length (Graph.preds graph v)) in
  let module Pq = Set.Make (struct
    type t = int * int (* (priority, task) *)

    let compare = compare
  end) in
  let ready = ref Pq.empty in
  List.iter
    (fun v -> ready := Pq.add (priority.(v), v) !ready)
    (Graph.sources graph);
  let scheduled = ref 0 in
  while !scheduled < n do
    let ((_, task) as key) = Pq.min_elt !ready in
    ready := Pq.remove key !ready;
    let pe = assignment.(task) in
    let tt = (Graph.task graph task).Task.task_type in
    let kind = pes.(pe).Pe.kind.Pe.kind_id in
    let wcet = Library.wcet lib ~task_type:tt ~kind in
    let data_ready =
      List.fold_left
        (fun acc (pred, data) ->
          match entries.(pred) with
          | None -> assert false
          | Some (e : Schedule.entry) ->
              let delay = Comm.delay_between comm ~src:e.Schedule.pe ~dst:pe ~data in
              Float.max acc (e.Schedule.finish +. delay))
        0.0 (Graph.preds graph task)
    in
    let start = Float.max data_ready pe_avail.(pe) in
    let finish = start +. wcet in
    entries.(task) <-
      Some
        {
          Schedule.task;
          pe;
          start;
          finish;
          energy = Library.energy lib ~task_type:tt ~kind;
        };
    pe_avail.(pe) <- finish;
    incr scheduled;
    List.iter
      (fun (succ, _) ->
        unscheduled_preds.(succ) <- unscheduled_preds.(succ) - 1;
        if unscheduled_preds.(succ) = 0 then
          ready := Pq.add (priority.(succ), succ) !ready)
      (Graph.succs graph task)
  done;
  let entries = Array.map (function Some e -> e | None -> assert false) entries in
  Schedule.make ~graph ~pes ~entries

let evaluate ~objective (s : Schedule.t) =
  match objective with
  | Makespan -> s.Schedule.makespan
  | Peak_temperature hotspot ->
      let report = Metrics.thermal_report s ~hotspot in
      let lateness = Float.max 0.0 (s.Schedule.makespan -. Graph.deadline s.Schedule.graph) in
      report.Metrics.max_temp +. (10.0 *. lateness)

(* Written negated, so that NaN fails. A temperature must be finite too:
   an infinite one never cools below the minimum, and [anneal] would not
   end. *)
let check_params params =
  let positive x = x > 0.0 && Float.is_finite x in
  if not (positive params.initial_temperature && positive params.min_temperature)
  then invalid_arg "Sa_mapper.run: temperature not positive and finite";
  if not (params.cooling > 0.0 && params.cooling < 1.0) then
    invalid_arg "Sa_mapper.run: cooling not in (0,1)"

(* One annealing chain from the baseline state, consuming [rng]. All
   mutable state is chain-local, so chains with independent generators can
   run on separate domains. *)
let anneal ~params ~rng ~objective ~graph ~lib ~pes ~baseline =
  Trace.with_span "sa_mapper.anneal" @@ fun () ->
  let n = Graph.n_tasks graph in
  let assignment =
    Array.map (fun (e : Schedule.entry) -> e.Schedule.pe) baseline.Schedule.entries
  in
  let priority =
    let ids = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        compare baseline.Schedule.entries.(a).Schedule.start
          baseline.Schedule.entries.(b).Schedule.start)
      ids;
    let p = Array.make n 0 in
    Array.iteri (fun rank v -> p.(v) <- rank) ids;
    p
  in
  let decode_state (a, p) = decode ~graph ~lib ~pes ~assignment:a ~priority:p in
  let cost_of state = evaluate ~objective (decode_state state) in
  let current = ref (Array.copy assignment, Array.copy priority) in
  let current_cost = ref (cost_of !current) in
  let best = ref (Array.copy assignment, Array.copy priority) in
  let best_cost = ref !current_cost in
  let tried = ref 0 and accepted = ref 0 in
  let temperature = ref params.initial_temperature in
  while !temperature > params.min_temperature do
    for _ = 1 to params.moves_per_temperature do
      incr tried;
      let a, p = !current in
      let a' = Array.copy a and p' = Array.copy p in
      if Rng.bool rng && Array.length pes > 1 then begin
        (* remap one task *)
        let t = Rng.int rng n in
        let pe = Rng.int rng (Array.length pes) in
        a'.(t) <- pe
      end
      else if n >= 2 then begin
        (* swap two priorities *)
        let i = Rng.int rng n and j = Rng.int rng n in
        let tmp = p'.(i) in
        p'.(i) <- p'.(j);
        p'.(j) <- tmp
      end;
      let candidate = (a', p') in
      let candidate_cost = cost_of candidate in
      let delta = candidate_cost -. !current_cost in
      if delta <= 0.0 || Rng.float rng 1.0 < exp (-.delta /. !temperature) then begin
        incr accepted;
        current := candidate;
        current_cost := candidate_cost;
        if candidate_cost < !best_cost then begin
          best := (Array.copy a', Array.copy p');
          best_cost := candidate_cost
        end
      end
    done;
    temperature := !temperature *. params.cooling
  done;
  Metricsreg.add m_moves !tried;
  {
    schedule = decode_state !best;
    cost = !best_cost;
    moves_tried = !tried;
    moves_accepted = !accepted;
  }

(* Seed state: the baseline ASP's own mapping and start-time order. *)
let baseline_schedule ~graph ~lib ~pes =
  List_sched.run ~graph ~lib ~pes ~policy:Policy.Baseline ()

let run ?(params = default_params) ~seed ~objective ~graph ~lib ~pes () =
  check_params params;
  let baseline = baseline_schedule ~graph ~lib ~pes in
  anneal ~params ~rng:(Rng.create seed) ~objective ~graph ~lib ~pes ~baseline

type restarts_result = {
  best : result;
  best_restart : int;
  restart_costs : float array;
}

let run_restarts ?(params = default_params) ?pool ?(restarts = 4) ~seed
    ~objective ~graph ~lib ~pes () =
  check_params params;
  if restarts < 1 then invalid_arg "Sa_mapper.run_restarts: need >= 1 restart";
  Trace.with_span "sa_mapper.restarts"
    ~args:[ ("restarts", Trace.Int restarts) ]
  @@ fun () ->
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let baseline = baseline_schedule ~graph ~lib ~pes in
  (* Restart 0 replays [run ~seed] exactly; restart i > 0 anneals with the
     derived generator for (seed, i). Chains are fully independent, so they
     fan out as pool tasks; the thermal facade of [Peak_temperature] is
     thread-safe and its cache value-exact, so shared use stays
     deterministic. *)
  (match objective with
  | Peak_temperature h -> ignore (Hotspot.inquiry h)
  | Makespan -> ());
  let results =
    Pool.parallel_mapi ~chunk:1 pool
      (fun i () ->
        let rng = if i = 0 then Rng.create seed else Rng.derive seed i in
        anneal ~params ~rng ~objective ~graph ~lib ~pes ~baseline)
      (Array.make restarts ())
  in
  let best_restart = ref 0 in
  Array.iteri
    (fun i (r : result) ->
      if r.cost < results.(!best_restart).cost then best_restart := i)
    results;
  {
    best = results.(!best_restart);
    best_restart = !best_restart;
    restart_costs = Array.map (fun (r : result) -> r.cost) results;
  }
