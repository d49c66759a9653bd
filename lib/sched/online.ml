module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry
module Transient = Tats_thermal.Transient
module Rng = Tats_util.Rng
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg

let m_events = Metricsreg.counter "online.events"
let m_decisions = Metricsreg.counter "online.decisions"
let m_candidates = Metricsreg.counter "online.candidates"
let m_deferrals = Metricsreg.counter "online.deferrals"

exception Policy_needs_hotspot

(* {1 Arrival streams} *)

type arrivals = float array

let validate_arrivals graph arrivals =
  if Array.length arrivals <> Graph.n_tasks graph then
    invalid_arg "Online: arrivals must cover every task";
  Array.iteri
    (fun t r ->
      if not (Float.is_finite r) || r < 0.0 then
        invalid_arg
          (Printf.sprintf "Online: task %d has an invalid release time" t))
    arrivals

let zero graph = Array.make (Graph.n_tasks graph) 0.0

let sporadic ?(mean_gap = 25.0) ~seed graph =
  if mean_gap <= 0.0 then
    invalid_arg "Online.sporadic: mean_gap must be positive";
  let n = Graph.n_tasks graph in
  let rel = Array.make n 0.0 in
  (* Topological sweep: a task's release is a per-task random gap after the
     latest predecessor release, so the stream respects causality while each
     gap depends only on (seed, task) — not on evaluation order. *)
  Array.iter
    (fun v ->
      let rng = Rng.derive seed v in
      let gap = Rng.float rng (2.0 *. mean_gap) in
      let base =
        List.fold_left
          (fun acc (p, _) -> Float.max acc rel.(p))
          0.0 (Graph.preds graph v)
      in
      rel.(v) <- base +. gap)
    (Graph.topological_order graph);
  rel

let of_trace (s : Schedule.t) =
  Array.map (fun (e : Schedule.entry) -> e.Schedule.start) s.Schedule.entries

(* {1 Policies} *)

type reactive = {
  base : Policy.t;
  trigger : float;
  penalty : float;
  cooldown : float;
  max_defers : int;
}

type policy = Mirror of Policy.t | Reactive of reactive

let default_reactive =
  {
    base = Policy.Thermal_aware;
    trigger = 75.0;
    penalty = 4.0;
    cooldown = 40.0;
    max_defers = 8;
  }

let policy_name = function
  | Mirror p -> Policy.name p
  | Reactive _ -> "reactive"

let policy_of_name = function
  | "reactive" -> Some (Reactive default_reactive)
  | name -> Option.map (fun p -> Mirror p) (Policy.of_name name)

let pp_policy ppf = function
  | Mirror p -> Format.fprintf ppf "online(%a)" Policy.pp p
  | Reactive r ->
      Format.fprintf ppf
        "reactive(%a, trigger %.1f°C, penalty %.2f, cooldown %.1f, <=%d \
         defers)"
        Policy.pp r.base r.trigger r.penalty r.cooldown r.max_defers

let base_policy = function Mirror p -> p | Reactive r -> r.base

(* {1 The event-loop core} *)

type stats = {
  events : int;
  decisions : int;
  candidates : int;
  deferrals : int;
  peak_observed : float;
}

type run = {
  schedule : Schedule.t;
  arrivals : arrivals;
  policy : policy;
  stats : stats;
}

module Iset = Set.Make (Int)
module Fset = Set.Make (Float)

type state = {
  entries : Schedule.entry option array;
  pe_tasks : Schedule.entry list array;
  pe_energy : float array;
  mutable n_scheduled : int;
}

(* Identical arithmetic to List_sched.earliest_start with no exclusive
   pairs: data from every predecessor must have arrived, and the PE must
   be free. *)
let earliest_start st ~comm graph task pe =
  let ready =
    List.fold_left
      (fun acc (pred, data) ->
        match st.entries.(pred) with
        | None -> assert false (* only called on plannable tasks *)
        | Some e ->
            let delay = Comm.delay_between comm ~src:e.Schedule.pe ~dst:pe ~data in
            Float.max acc (e.Schedule.finish +. delay))
      0.0 (Graph.preds graph task)
  in
  let avail =
    List.fold_left
      (fun acc (e : Schedule.entry) -> Float.max acc e.Schedule.finish)
      0.0 st.pe_tasks.(pe)
  in
  Float.max ready avail

(* Live transient state: the engine is advanced lazily from [clock] to the
   current event time over the piecewise-constant power implied by the
   committed intervals (idle + WCPC of whatever runs in each segment). *)
type live = {
  engine : Transient.t;
  temps : float array; (* full node vector, blocks first *)
  mutable clock : float; (* schedule time units *)
}

let advance_live l ~idle ~time_unit ~intervals ~now =
  if now > l.clock then begin
    let n_pes = Array.length idle in
    let power_at t =
      Array.init n_pes (fun pe ->
          let running =
            List.fold_left
              (fun acc (iv : Replay.interval) ->
                if iv.Replay.pe = pe && iv.Replay.start <= t && t < iv.Replay.finish
                then acc +. iv.Replay.power
                else acc)
              0.0 intervals
          in
          idle.(pe) +. running)
    in
    (* Segment boundaries: committed interval endpoints strictly inside
       (clock, now). No endpoint lies inside a segment, so power is exact
       when evaluated at the segment start. *)
    let cuts =
      List.concat_map
        (fun (iv : Replay.interval) -> [ iv.Replay.start; iv.Replay.finish ])
        intervals
      |> List.filter (fun t -> t > l.clock && t < now)
      |> List.sort_uniq Float.compare
    in
    let rec step_segments start = function
      | [] ->
          if now > start then
            Transient.step l.engine
              ~dt:((now -. start) *. time_unit)
              ~power:(power_at start) l.temps
      | cut :: rest ->
          if cut > start then
            Transient.step l.engine
              ~dt:((cut -. start) *. time_unit)
              ~power:(power_at start) l.temps;
          step_segments cut rest
    in
    step_segments l.clock cuts;
    l.clock <- now
  end

(* The shared greedy core. [release] is when the scheduler learns a task
   exists (all zeros for the clairvoyant baseline); [floor] is the earliest
   permitted start (the arrival trace for both players). With both all
   zero this runs the exact candidate scan, DC arithmetic and tie-breaking
   of List_sched.run — the bit-identity anchor of the test battery. *)
let plan ?weights ?hotspot ?constraints ~time_unit ~release ~floor ~graph ~lib
    ~pes ~policy () =
  let n = Graph.n_tasks graph in
  validate_arrivals graph release;
  validate_arrivals graph floor;
  let checker =
    match constraints with
    | Some spec when not (Constraints.is_empty spec) ->
        Some (Constraints.make spec ~n_tasks:n ~pes)
    | _ -> None
  in
  let admissible task pe =
    match checker with
    | None -> true
    | Some c -> Constraints.admissible c ~task ~pe ~pes
  in
  let weights =
    match weights with
    | Some w -> w
    | None -> Policy.default_weights ~deadline:(Graph.deadline graph)
  in
  let reactive = match policy with Mirror _ -> None | Reactive r -> Some r in
  (match (policy, hotspot) with
  | (Mirror Policy.Thermal_aware | Reactive _), None ->
      raise Policy_needs_hotspot
  | (Mirror Policy.Thermal_aware | Reactive _), Some h ->
      if Hotspot.n_blocks h <> Array.length pes then
        invalid_arg "Online: hotspot must have one block per PE"
  | Mirror (Policy.Baseline | Policy.Power_aware _), _ -> ());
  let comm = Library.comm lib in
  let sc = Dc.static_criticality lib graph in
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes in
  let inquiry =
    match (base_policy policy, hotspot) with
    | Policy.Thermal_aware, Some h -> Some (Hotspot.inquiry h)
    | _ -> None
  in
  let live =
    match (reactive, hotspot) with
    | Some _, Some h ->
        let model = Hotspot.model h in
        Some
          {
            engine = Transient.create (Transient.of_model model);
            temps = Transient.initial_ambient model;
            clock = 0.0;
          }
    | _ -> None
  in
  let st =
    {
      entries = Array.make n None;
      pe_tasks = Array.make (Array.length pes) [];
      pe_energy = Array.make (Array.length pes) 0.0;
      n_scheduled = 0;
    }
  in
  let unscheduled_preds = Array.make n 0 in
  for v = 0 to n - 1 do
    unscheduled_preds.(v) <- List.length (Graph.preds graph v)
  done;
  let released = Array.make n false in
  let wake = Array.make n 0.0 in
  let defers = Array.make n 0 in
  let committed = ref [] (* Replay.interval list, for the live state *) in
  let events =
    ref (Array.fold_left (fun s r -> Fset.add r s) Fset.empty release)
  in
  let n_events = ref 0 in
  let n_candidates = ref 0 in
  let n_deferrals = ref 0 in
  let peak_observed = ref Float.nan in
  while st.n_scheduled < n do
    let now =
      match Fset.min_elt_opt !events with
      | Some t -> t
      | None -> assert false (* every unscheduled task has a pending event *)
    in
    events := Fset.remove now !events;
    incr n_events;
    Metricsreg.incr m_events;
    Trace.with_span "online.event" ~args:[ ("t", Trace.Float now) ]
    @@ fun () ->
    Array.iteri
      (fun t r -> if (not released.(t)) && r <= now then released.(t) <- true)
      release;
    (* Query the transient engine for the temperature state at this
       decision point (reactive policies only). *)
    let temps_now =
      match live with
      | None -> None
      | Some l ->
          advance_live l ~idle ~time_unit ~intervals:!committed ~now;
          let hottest = ref Float.neg_infinity in
          for pe = 0 to Array.length pes - 1 do
            hottest := Float.max !hottest l.temps.(pe)
          done;
          peak_observed :=
            (if Float.is_nan !peak_observed then !hottest
             else Float.max !peak_observed !hottest);
          Some l.temps
    in
    let all_hot =
      match (temps_now, reactive) with
      | Some temps, Some r ->
          let hot = ref true in
          for pe = 0 to Array.length pes - 1 do
            if temps.(pe) <= r.trigger then hot := false
          done;
          !hot
      | _ -> false
    in
    (* Everything plannable right now: released, predecessors committed,
       and past any cooldown stall. *)
    let ready = ref Iset.empty in
    for v = 0 to n - 1 do
      if
        st.entries.(v) = None
        && released.(v)
        && unscheduled_preds.(v) = 0
        && wake.(v) <= now
      then ready := Iset.add v !ready
    done;
    while not (Iset.is_empty !ready) do
      n_candidates := !n_candidates + (Iset.cardinal !ready * Array.length pes);
      Metricsreg.add m_candidates (Iset.cardinal !ready * Array.length pes);
      (* One base solve per commit step, exactly as the offline loop:
         candidates are delta-evaluated against the committed PE
         energies. *)
      let base =
        match inquiry with
        | None -> None
        | Some e -> Some (Inquiry.base_response e ~power:st.pe_energy)
      in
      let best = ref None in
      Iset.iter
        (fun task ->
          let tt = (Graph.task graph task).Task.task_type in
          Array.iteri
            (fun pe (inst : Pe.inst) ->
              if admissible task pe then begin
              let kind = inst.Pe.kind.Pe.kind_id in
              let wcet = Library.wcet lib ~task_type:tt ~kind in
              let task_energy = Library.energy lib ~task_type:tt ~kind in
              let start =
                Float.max
                  (earliest_start st ~comm graph task pe)
                  (Float.max floor.(task) now)
              in
              let finish = start +. wcet in
              let cost =
                match base_policy policy with
                | Policy.Baseline -> 0.0
                | Policy.Power_aware Policy.Min_task_power ->
                    Dc.cost_task_power lib ~task_type:tt ~kind
                | Policy.Power_aware Policy.Min_pe_average_power ->
                    Dc.cost_pe_average_power lib ~pe_energy:st.pe_energy.(pe)
                      ~task_energy ~finish
                | Policy.Power_aware Policy.Min_task_energy ->
                    Dc.cost_task_energy lib ~task_type:tt ~kind
                | Policy.Thermal_aware ->
                    let engine = Option.get inquiry in
                    let base = Option.get base in
                    let task_power = Library.wcpc lib ~task_type:tt ~kind in
                    Dc.cost_thermal ~engine ~base ~idle ~finish ~pe ~task_power
              in
              (* Migration pressure: candidates on currently-hot PEs pay an
                 extra normalized cost per °C over the trigger. *)
              let cost =
                match (temps_now, reactive) with
                | Some temps, Some r ->
                    cost
                    +. r.penalty
                       *. Float.max 0.0 (temps.(pe) -. r.trigger)
                       /. 100.0
                | _ -> cost
              in
              let dc =
                Dc.value ~sc:sc.(task) ~wcet ~start ~cost
                  ~weight:weights.Policy.cost_weight
              in
              let better =
                match !best with
                | None -> true
                | Some (dc', task', pe', _, _, _) ->
                    dc > dc' +. 1e-12
                    || (Float.abs (dc -. dc') <= 1e-12
                       && (task < task' || (task = task' && pe < pe')))
              in
              if better then best := Some (dc, task, pe, start, finish, task_energy)
              end)
            pes)
        !ready;
      match !best with
      | None -> (
          match checker with
          | Some _ ->
              raise
                (Constraints.Infeasible (Constraints.infeasible_msg "Online.plan"))
          | None -> assert false)
      | Some (_, task, pe, start, finish, task_energy) -> (
          match reactive with
          | Some r when all_hot && defers.(task) < r.max_defers ->
              (* Throttle: every PE is over the trigger, so stall the pick
                 to a cooldown wake-up instead of committing it. *)
              defers.(task) <- defers.(task) + 1;
              wake.(task) <- now +. r.cooldown;
              events := Fset.add (now +. r.cooldown) !events;
              ready := Iset.remove task !ready;
              incr n_deferrals;
              Metricsreg.incr m_deferrals
          | _ ->
              (match checker with
              | Some c -> Constraints.commit c ~task ~pe
              | None -> ());
              let entry =
                { Schedule.task; pe; start; finish; energy = task_energy }
              in
              st.entries.(task) <- Some entry;
              st.pe_tasks.(pe) <- entry :: st.pe_tasks.(pe);
              st.pe_energy.(pe) <- st.pe_energy.(pe) +. task_energy;
              st.n_scheduled <- st.n_scheduled + 1;
              Metricsreg.incr m_decisions;
              (if live <> None then
                 let tt = (Graph.task graph task).Task.task_type in
                 let kind = pes.(pe).Pe.kind.Pe.kind_id in
                 let power = Library.wcpc lib ~task_type:tt ~kind in
                 committed :=
                   { Replay.pe; start; finish; power } :: !committed);
              ready := Iset.remove task !ready;
              List.iter
                (fun (succ, _) ->
                  unscheduled_preds.(succ) <- unscheduled_preds.(succ) - 1;
                  if
                    unscheduled_preds.(succ) = 0
                    && released.(succ)
                    && wake.(succ) <= now
                  then ready := Iset.add succ !ready)
                (Graph.succs graph task))
    done
  done;
  let entries =
    Array.mapi
      (fun i e ->
        match e with
        | Some e -> e
        | None ->
            failwith
              (Printf.sprintf
                 "Online: internal error: task %d was never scheduled" i))
      st.entries
  in
  let schedule = Schedule.make ~graph ~pes ~entries in
  let stats =
    {
      events = !n_events;
      decisions = st.n_scheduled;
      candidates = !n_candidates;
      deferrals = !n_deferrals;
      peak_observed = !peak_observed;
    }
  in
  (schedule, stats)

let run ?weights ?hotspot ?constraints ?(time_unit = 1e-3) ~arrivals ~graph
    ~lib ~pes ~policy () =
  Trace.with_span "online.run"
    ~args:
      (if Trace.enabled () then
         [
           ("policy", Trace.Str (Format.asprintf "%a" pp_policy policy));
           ("tasks", Trace.Int (Graph.n_tasks graph));
           ("pes", Trace.Int (Array.length pes));
         ]
       else [])
  @@ fun () ->
  let schedule, stats =
    plan ?weights ?hotspot ?constraints ~time_unit ~release:arrivals
      ~floor:arrivals ~graph ~lib ~pes ~policy ()
  in
  { schedule; arrivals; policy; stats }

let clairvoyant ?weights ?hotspot ?constraints ~arrivals ~graph ~lib ~pes
    ~policy () =
  Trace.with_span "online.clairvoyant"
    ~args:[ ("policy", Trace.Str (Policy.name policy)) ]
  @@ fun () ->
  let release = Array.make (Graph.n_tasks graph) 0.0 in
  validate_arrivals graph arrivals;
  let schedule, _ =
    plan ?weights ?hotspot ?constraints ~time_unit:1e-3 ~release
      ~floor:arrivals ~graph ~lib ~pes ~policy:(Mirror policy) ()
  in
  schedule

let released_before_start r =
  Array.to_list r.schedule.Schedule.entries
  |> List.filter_map (fun (e : Schedule.entry) ->
         if e.Schedule.start < r.arrivals.(e.Schedule.task) then
           Some e.Schedule.task
         else None)

(* {1 Competitive scoring} *)

type score = {
  online_makespan : float;
  clairvoyant_makespan : float;
  makespan_ratio : float;
  online_peak : float;
  clairvoyant_peak : float;
  peak_ratio : float;
  mimicked_makespan : bool;
  mimicked_peak : bool;
}

let score ?(periods = 50) ?dt ?(time_unit = 1e-3) ~lib ~hotspot ~clairvoyant
    (r : run) =
  Trace.with_span "online.score" @@ fun () ->
  let peak_of s =
    let profile = Replay.of_schedule ~time_unit ~lib s in
    Array.fold_left Float.max Float.neg_infinity
      (Replay.peaks ~periods ?dt ~hotspot profile)
  in
  let online_makespan = r.schedule.Schedule.makespan in
  let clairvoyant_makespan = clairvoyant.Schedule.makespan in
  let online_peak = peak_of r.schedule in
  let clairvoyant_peak = peak_of clairvoyant in
  (* The adversary sees everything the online player does and may mimic
     it, so the baseline per metric is the better of the two schedules —
     both ratios are >= 1 by construction. *)
  let ratio online clairvoyant =
    let baseline = Float.min online clairvoyant in
    let mimicked = online < clairvoyant in
    if baseline <= 0.0 then (1.0, mimicked) else (online /. baseline, mimicked)
  in
  let makespan_ratio, mimicked_makespan =
    ratio online_makespan clairvoyant_makespan
  in
  let peak_ratio, mimicked_peak = ratio online_peak clairvoyant_peak in
  {
    online_makespan;
    clairvoyant_makespan;
    makespan_ratio;
    online_peak;
    clairvoyant_peak;
    peak_ratio;
    mimicked_makespan;
    mimicked_peak;
  }

let pp_score ppf s =
  Format.fprintf ppf
    "@[<v>makespan %.1f vs clairvoyant %.1f (ratio %.4f%s)@,\
     peak %.2f°C vs clairvoyant %.2f°C (ratio %.4f%s)@]" s.online_makespan
    s.clairvoyant_makespan s.makespan_ratio
    (if s.mimicked_makespan then ", mimicked" else "")
    s.online_peak s.clairvoyant_peak s.peak_ratio
    (if s.mimicked_peak then ", mimicked" else "")
