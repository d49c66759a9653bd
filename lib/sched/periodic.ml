module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Hotspot = Tats_thermal.Hotspot
module Stats = Tats_util.Stats

type app = { graph : Graph.t; period : float }

let make_app ~graph ~period =
  if period <= 0.0 || Float.rem period 1.0 <> 0.0 then
    invalid_arg "Periodic.make_app: period must be a positive integer";
  if period < Graph.deadline graph then
    invalid_arg "Periodic.make_app: period shorter than the graph deadline";
  { graph; period }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let hyperperiod apps =
  match apps with
  | [] -> invalid_arg "Periodic.hyperperiod: no applications"
  | first :: rest ->
      let lcm a b = a / gcd a b * b in
      let p app = int_of_float app.period in
      float_of_int (List.fold_left (fun acc app -> lcm acc (p app)) (p first) rest)

type job = { app : int; instance : int; task : Task.id }

type entry = { job : job; pe : int; start : float; finish : float; energy : float }

type t = {
  apps : app array;
  pes : Pe.inst array;
  hyper : float;
  entries : entry array;
}

(* Dense job numbering: offsets.(a) + instance * n_tasks(a) + task. *)
type expansion = {
  offsets : int array;
  instances : int array; (* per app *)
  jobs : job array;
}

let expand apps hyper =
  let n_apps = Array.length apps in
  let offsets = Array.make n_apps 0 in
  let instances = Array.make n_apps 0 in
  let total = ref 0 in
  for a = 0 to n_apps - 1 do
    offsets.(a) <- !total;
    instances.(a) <- int_of_float (hyper /. apps.(a).period);
    total := !total + (instances.(a) * Graph.n_tasks apps.(a).graph)
  done;
  let jobs = Array.make !total { app = 0; instance = 0; task = 0 } in
  for a = 0 to n_apps - 1 do
    let n = Graph.n_tasks apps.(a).graph in
    for k = 0 to instances.(a) - 1 do
      for task = 0 to n - 1 do
        jobs.(offsets.(a) + (k * n) + task) <- { app = a; instance = k; task }
      done
    done
  done;
  { offsets; instances; jobs }

let job_index exp apps j =
  exp.offsets.(j.app) + (j.instance * Graph.n_tasks apps.(j.app).graph) + j.task

let release apps j = float_of_int j.instance *. apps.(j.app).period

let job_deadline apps j = release apps j +. Graph.deadline apps.(j.app).graph

let schedule ?(policy = Policy.Baseline) ?weights ?hotspot ~apps ~lib ~pes () =
  (match apps with [] -> invalid_arg "Periodic.schedule: no applications" | _ -> ());
  let apps = Array.of_list apps in
  let hyper = hyperperiod (Array.to_list apps) in
  let exp = expand apps hyper in
  let n_jobs = Array.length exp.jobs in
  let weight =
    (match weights with
    | Some w -> w
    | None -> Policy.default_weights ~deadline:hyper)
      .Policy.cost_weight
  in
  Tats_util.Trace.with_span "periodic.schedule"
    ~args:[ ("jobs", Tats_util.Trace.Int n_jobs) ]
  @@ fun () ->
  (* The hyperperiod's jobs as one graph, numbered densely: instances
     inherit their app's tasks and edges and are otherwise independent. *)
  let graph =
    let b = Graph.builder ~name:"hyperperiod" ~deadline:hyper in
    Array.iter
      (fun j ->
        let tt = (Graph.task apps.(j.app).graph j.task).Task.task_type in
        ignore (Graph.add_task b ~task_type:tt () : Task.id))
      exp.jobs;
    Array.iteri
      (fun idx j ->
        List.iter
          (fun (pred, data) ->
            Graph.add_edge b ~data (job_index exp apps { j with task = pred }) idx)
          (Graph.preds apps.(j.app).graph j.task))
      exp.jobs;
    Graph.build b
  in
  (* Job urgency: the app's static criticality relative to the instance
     release. *)
  let sc = Array.map (fun app -> Dc.static_criticality lib app.graph) apps in
  let sc = Array.map (fun j -> sc.(j.app).(j.task) -. release apps j) exp.jobs in
  let st =
    List_sched.init (List_sched.prepare ?hotspot ~sc ~graph ~lib ~pes ~policy ())
  in
  let floor idx = release apps exp.jobs.(idx) in
  let ready = ref (List_sched.Ready.of_list (Graph.sources graph)) in
  let on_ready succ = ready := List_sched.Ready.add succ !ready in
  (* One thermal horizon per step (the committed frontier), so the
     inquiry compares candidates on equal footing. *)
  let now = ref 1.0 in
  let order = ref [] in
  while List_sched.scheduled st < n_jobs do
    let choice =
      List_sched.pick ~caller:"Periodic.schedule" st
        (List_sched.scan ~floor ~horizon:!now st ~ready:!ready)
        ~weight
    in
    let { Schedule.task = idx; pe; start; finish; energy } =
      List_sched.commit ~on_ready st choice
    in
    order := { job = exp.jobs.(idx); pe; start; finish; energy } :: !order;
    now := Float.max !now finish;
    ready := List_sched.Ready.remove idx !ready
  done;
  { apps; pes; hyper; entries = Array.of_list (List.rev !order) }

type violation =
  | Release of job
  | Job_deadline of job
  | Precedence of job * job
  | Pe_overlap of int * job * job

let validate t ~lib =
  let comm = Library.comm lib in
  let violations = ref [] in
  let by_job = Hashtbl.create (Array.length t.entries) in
  Array.iter (fun e -> Hashtbl.replace by_job e.job e) t.entries;
  Array.iter
    (fun e ->
      let j = e.job in
      if e.start +. 1e-9 < release t.apps j then violations := Release j :: !violations;
      if e.finish > job_deadline t.apps j +. 1e-6 then
        violations := Job_deadline j :: !violations;
      List.iter
        (fun (pred, data) ->
          let pj = { j with task = pred } in
          match Hashtbl.find_opt by_job pj with
          | None -> violations := Precedence (pj, j) :: !violations
          | Some pe_entry ->
              let delay = Comm.delay_between comm ~src:pe_entry.pe ~dst:e.pe ~data in
              if e.start +. 1e-6 < pe_entry.finish +. delay then
                violations := Precedence (pj, j) :: !violations)
        (Graph.preds t.apps.(j.app).graph j.task))
    t.entries;
  for pe = 0 to Array.length t.pes - 1 do
    let on_pe =
      Array.to_list t.entries
      |> List.filter (fun e -> e.pe = pe)
      |> List.sort (fun a b -> compare a.start b.start)
    in
    let rec scan = function
      | a :: (b :: _ as rest) ->
          if b.start +. 1e-9 < a.finish then
            violations := Pe_overlap (pe, a.job, b.job) :: !violations;
          scan rest
      | [ _ ] | [] -> ()
    in
    scan on_pe
  done;
  List.rev !violations

let meets_all_deadlines t =
  Array.for_all (fun e -> e.finish <= job_deadline t.apps e.job +. 1e-6) t.entries

let total_energy t = Array.fold_left (fun acc e -> acc +. e.energy) 0.0 t.entries

let average_power t = total_energy t /. Float.max t.hyper 1e-9

let pe_average_powers t =
  let dyn = Array.make (Array.length t.pes) 0.0 in
  Array.iter (fun e -> dyn.(e.pe) <- dyn.(e.pe) +. e.energy) t.entries;
  Array.mapi
    (fun pe e -> (e /. Float.max t.hyper 1e-9) +. t.pes.(pe).Pe.kind.Pe.idle_power)
    dyn

let thermal_report ?(leakage = true) t ~hotspot =
  if Hotspot.n_blocks hotspot <> Array.length t.pes then
    invalid_arg "Periodic.thermal_report: hotspot must have one block per PE";
  let dyn = Array.make (Array.length t.pes) 0.0 in
  Array.iter (fun e -> dyn.(e.pe) <- dyn.(e.pe) +. e.energy) t.entries;
  let dynamic = Array.map (fun e -> e /. Float.max t.hyper 1e-9) dyn in
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) t.pes in
  let block_temps =
    if leakage then Hotspot.inquire_with_leakage hotspot ~dynamic ~idle
    else Hotspot.query hotspot ~power:(Array.mapi (fun i d -> d +. idle.(i)) dynamic)
  in
  {
    Metrics.pe_powers = Array.mapi (fun i d -> d +. idle.(i)) dynamic;
    block_temps;
    max_temp = Stats.max block_temps;
    avg_temp = Stats.mean block_temps;
  }

let transient_peak ?(time_unit = 1e-3) ?(periods = 20) ?dt t ~hotspot =
  if Hotspot.n_blocks hotspot <> Array.length t.pes then
    invalid_arg "Periodic.transient_peak: hotspot must have one block per PE";
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) t.pes in
  (* entry.energy = wcet x wcpc and finish - start = wcet, so the
     interval's draw is exactly the job's WCPC. *)
  let intervals =
    Array.to_list t.entries
    |> List.filter (fun e -> e.finish > e.start)
    |> List.map (fun e ->
           {
             Replay.pe = e.pe;
             start = e.start;
             finish = e.finish;
             power = e.energy /. (e.finish -. e.start);
           })
  in
  let profile =
    Replay.profile_of_intervals
      ~duration:(Float.max t.hyper 1e-9)
      ~time_unit ~idle intervals
  in
  Replay.peaks ~periods ?dt ~hotspot profile

let utilization t =
  let busy = Array.fold_left (fun acc e -> acc +. (e.finish -. e.start)) 0.0 t.entries in
  busy /. (float_of_int (Array.length t.pes) *. Float.max t.hyper 1e-9)

let schedule_adaptive ?base_weights ?(max_multiplier = 400.0) ?(search_steps = 16)
    ?hotspot ~apps ~lib ~pes ~policy () =
  if max_multiplier <= 0.0 then
    invalid_arg "Periodic.schedule_adaptive: non-positive multiplier";
  let base =
    match base_weights with
    | Some w -> w
    | None ->
        let min_deadline =
          List.fold_left
            (fun acc app -> Float.min acc (Graph.deadline app.graph))
            infinity apps
        in
        Policy.default_weights ~deadline:min_deadline
  in
  let attempt mult =
    let weights = { Policy.cost_weight = base.Policy.cost_weight *. mult } in
    (schedule ~policy ~weights ?hotspot ~apps ~lib ~pes (), weights)
  in
  let meets (t, _) = meets_all_deadlines t in
  (* Find the feasibility boundary. *)
  let boundary =
    let ceiling = attempt max_multiplier in
    if meets ceiling then max_multiplier
    else begin
      let lo = ref 0.0 and hi = ref max_multiplier in
      for _ = 1 to search_steps do
        let mid = (!lo +. !hi) /. 2.0 in
        if meets (attempt mid) then lo := mid else hi := mid
      done;
      !lo
    end
  in
  (* The hyperperiod-average power is fixed, so unlike the one-shot ASP a
     larger weight is not automatically cooler: scan the feasible range and
     keep the coolest candidate (or the strongest feasible weight when no
     thermal objective is available). *)
  let candidates =
    List.sort_uniq compare
      [ 0.0; boundary /. 8.0; boundary /. 4.0; boundary /. 2.0;
        3.0 *. boundary /. 4.0; boundary ]
  in
  let evaluate mult =
    let ((t, _) as r) = attempt mult in
    let key =
      if not (meets_all_deadlines t) then infinity
      else
        match (policy, hotspot) with
        | Policy.Thermal_aware, Some h ->
            (thermal_report t ~hotspot:h).Metrics.max_temp
        | (Policy.Baseline | Policy.Power_aware _ | Policy.Thermal_aware), _ ->
            -.mult
    in
    (key, r)
  in
  let scored = List.map evaluate candidates in
  let best =
    List.fold_left
      (fun acc (key, r) ->
        match acc with
        | None -> Some (key, r)
        | Some (k', _) when key < k' -. 1e-12 -> Some (key, r)
        | Some _ -> acc)
      None scored
  in
  match best with
  | Some (key, r) when key < infinity -> r
  | _ -> attempt 0.0
