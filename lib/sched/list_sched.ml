module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg

let m_steps = Metricsreg.counter "sched.steps"
let m_candidates = Metricsreg.counter "sched.candidates"
let m_adaptive_attempts = Metricsreg.counter "sched.adaptive_attempts"
let m_replayed_steps = Metricsreg.counter "sched.replayed_steps"

exception Thermal_policy_needs_hotspot

type state = {
  entries : Schedule.entry option array;
  pe_tasks : Schedule.entry list array; (* per PE, most recent first *)
  pe_energy : float array;
  mutable n_scheduled : int;
}

(* Earliest start of [task] on [pe]: data from every predecessor must have
   arrived, and the PE must be free — except for mutually exclusive
   predecessors-by-condition, which may overlap. *)
let earliest_start st ~comm ~exclusive graph task pe =
  let ready =
    List.fold_left
      (fun acc (pred, data) ->
        match st.entries.(pred) with
        | None -> assert false (* only called on ready tasks *)
        | Some e ->
            let delay = Comm.delay_between comm ~src:e.Schedule.pe ~dst:pe ~data in
            Float.max acc (e.Schedule.finish +. delay))
      0.0 (Graph.preds graph task)
  in
  let avail =
    List.fold_left
      (fun acc (e : Schedule.entry) ->
        if exclusive e.Schedule.task task then acc
        else Float.max acc e.Schedule.finish)
      0.0 st.pe_tasks.(pe)
  in
  Float.max ready avail

(* What a schedule needs that no decision and no weight changes, validated
   and computed once per [run] or [run_adaptive] call. *)
type ctx = {
  graph : Graph.t;
  lib : Library.t;
  pes : Pe.inst array;
  policy : Policy.t;
  exclusive : Task.id -> Task.id -> bool;
  constraints : Constraints.spec option; (* [None] when empty *)
  sc : float array;
  idle : float array;
  (* Shared by every candidate evaluation; only for the thermal policy. *)
  engine : Inquiry.t option;
}

let prepare ?hotspot ?(exclusive = fun _ _ -> false) ?constraints ~graph ~lib
    ~pes ~policy () =
  let engine =
    match (policy, hotspot) with
    | Policy.Thermal_aware, None -> raise Thermal_policy_needs_hotspot
    | Policy.Thermal_aware, Some h ->
        if Hotspot.n_blocks h <> Array.length pes then
          invalid_arg "List_sched.run: hotspot must have one block per PE";
        Some (Hotspot.inquiry h)
    | (Policy.Baseline | Policy.Power_aware _), _ -> None
  in
  {
    graph;
    lib;
    pes;
    policy;
    exclusive;
    constraints =
      (match constraints with
      | Some spec when not (Constraints.is_empty spec) -> Some spec
      | _ -> None);
    sc = Dc.static_criticality lib graph;
    idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes;
    engine;
  }

(* One scheduling step's admissible candidates under a fixed decision
   prefix, in scan order (ascending task, then PE). Everything stored is a
   function of the prefix alone; only [Dc.weigh] brings in the weight. *)
type node = {
  pairs : int array; (* task * n_pes + pe *)
  parts : float array; (* Dc.part *)
  costs : float array;
  starts : float array;
  mutable children : (int * node) list; (* by the pair committed next *)
}

(* Where the current step's candidates come from: a node an earlier attempt
   scanned, or a fresh scan, handed to [attach] to extend the memo. *)
type cursor = Replay of node | Scan of (node -> unit)

(* The list scheduler. With [memo], the steps of a decision prefix that an
   earlier call on the same memo already scanned are replayed from it. *)
let schedule ?memo ctx ~weights =
  let { graph; lib; pes; policy; exclusive; sc; idle; engine; _ } = ctx in
  let n = Graph.n_tasks graph and n_pes = Array.length pes in
  (* The checker is stateful, so it is rebuilt per schedule. *)
  let checker =
    Option.map (fun spec -> Constraints.make spec ~n_tasks:n ~pes) ctx.constraints
  in
  let admissible task pe =
    match checker with
    | None -> true
    | Some c -> Constraints.admissible c ~task ~pe ~pes
  in
  Trace.with_span "sched.run"
    ~args:
      (if Trace.enabled () then
         [
           ("policy", Trace.Str (Format.asprintf "%a" Policy.pp policy));
           ("tasks", Trace.Int n);
           ("pes", Trace.Int n_pes);
         ]
       else [])
  @@ fun () ->
  let comm = Library.comm lib in
  let st =
    {
      entries = Array.make n None;
      pe_tasks = Array.make n_pes [];
      pe_energy = Array.make n_pes 0.0;
      n_scheduled = 0;
    }
  in
  let unscheduled_preds = Array.make n 0 in
  for v = 0 to n - 1 do
    unscheduled_preds.(v) <- List.length (Graph.preds graph v)
  done;
  let module Iset = Set.Make (Int) in
  let ready =
    ref (List.fold_left (fun s v -> Iset.add v s) Iset.empty (Graph.sources graph))
  in
  let n_ready = ref (Iset.cardinal !ready) in
  (* Score every admissible (ready task, PE) pair, weight-free. *)
  let scan () =
    (* One base solve per scanned step: the influence response to the
       committed PE energies. Candidates below are delta-evaluated against
       it in O(n_blocks) each instead of re-solving from scratch. *)
    let base =
      match engine with
      | None -> None
      | Some e -> Some (Inquiry.base_response e ~power:st.pe_energy)
    in
    let cap = !n_ready * n_pes in
    let pairs = Array.make cap 0 in
    let parts = Array.make cap 0.0 in
    let costs = Array.make cap 0.0 in
    let starts = Array.make cap 0.0 in
    let k = ref 0 in
    Iset.iter
      (fun task ->
        let tt = (Graph.task graph task).Task.task_type in
        Array.iteri
          (fun pe (inst : Pe.inst) ->
            if admissible task pe then begin
              let kind = inst.Pe.kind.Pe.kind_id in
              let wcet = Library.wcet lib ~task_type:tt ~kind in
              let start = earliest_start st ~comm ~exclusive graph task pe in
              let finish = start +. wcet in
              let cost =
                match policy with
                | Policy.Baseline -> 0.0
                | Policy.Power_aware Policy.Min_task_power ->
                    Dc.cost_task_power lib ~task_type:tt ~kind
                | Policy.Power_aware Policy.Min_pe_average_power ->
                    Dc.cost_pe_average_power lib ~pe_energy:st.pe_energy.(pe)
                      ~task_energy:(Library.energy lib ~task_type:tt ~kind)
                      ~finish
                | Policy.Power_aware Policy.Min_task_energy ->
                    Dc.cost_task_energy lib ~task_type:tt ~kind
                | Policy.Thermal_aware ->
                    let task_power = Library.wcpc lib ~task_type:tt ~kind in
                    Dc.cost_thermal ~engine:(Option.get engine)
                      ~base:(Option.get base) ~idle ~finish ~pe ~task_power
              in
              pairs.(!k) <- (task * n_pes) + pe;
              parts.(!k) <- Dc.part ~sc:sc.(task) ~wcet ~start;
              costs.(!k) <- cost;
              starts.(!k) <- start;
              incr k
            end)
          pes)
      !ready;
    let trim a = if !k = cap then a else Array.sub a 0 !k in
    {
      pairs = trim pairs;
      parts = trim parts;
      costs = trim costs;
      starts = trim starts;
      children = [];
    }
  in
  (* The highest-DC candidate at this schedule's weight, as an index into
     [node]; -1 when there is none. Scan order and the 1e-12 tie-break are
     those of a direct scan, so a replayed step picks what a fresh one
     would. *)
  let pick node =
    let weight = weights.Policy.cost_weight in
    let best = ref (-1) and best_dc = ref 0.0 in
    Array.iteri
      (fun i pair ->
        let dc = Dc.weigh ~part:node.parts.(i) ~cost:node.costs.(i) ~weight in
        if
          !best < 0
          || dc > !best_dc +. 1e-12
          || (Float.abs (dc -. !best_dc) <= 1e-12 && pair < node.pairs.(!best))
        then begin
          best := i;
          best_dc := dc
        end)
      node.pairs;
    !best
  in
  let cursor =
    ref
      (match memo with
      | None -> Scan ignore
      | Some root -> (
          match !root with
          | Some node -> Replay node
          | None -> Scan (fun node -> root := Some node)))
  in
  while st.n_scheduled < n do
    assert (!n_ready > 0);
    Metricsreg.incr m_steps;
    Metricsreg.add m_candidates (!n_ready * n_pes);
    Trace.with_span "sched.step"
      ~args:(if Trace.enabled () then [ ("ready", Trace.Int !n_ready) ] else [])
    @@ fun () ->
    let node =
      match !cursor with
      | Replay node ->
          Metricsreg.incr m_replayed_steps;
          Trace.add_attr "replayed" (Trace.Bool true);
          node
      | Scan attach ->
          let node = scan () in
          attach node;
          node
    in
    let i = pick node in
    if i < 0 then begin
      match checker with
      | Some _ ->
          raise
            (Constraints.Infeasible (Constraints.infeasible_msg "List_sched.run"))
      | None -> assert false
    end;
    let pair = node.pairs.(i) in
    let task = pair / n_pes and pe = pair mod n_pes in
    let tt = (Graph.task graph task).Task.task_type in
    let kind = pes.(pe).Pe.kind.Pe.kind_id in
    let start = node.starts.(i) in
    let finish = start +. Library.wcet lib ~task_type:tt ~kind in
    let energy = Library.energy lib ~task_type:tt ~kind in
    (match checker with Some c -> Constraints.commit c ~task ~pe | None -> ());
    let entry = { Schedule.task; pe; start; finish; energy } in
    st.entries.(task) <- Some entry;
    st.pe_tasks.(pe) <- entry :: st.pe_tasks.(pe);
    st.pe_energy.(pe) <- st.pe_energy.(pe) +. energy;
    st.n_scheduled <- st.n_scheduled + 1;
    ready := Iset.remove task !ready;
    decr n_ready;
    List.iter
      (fun (succ, _) ->
        unscheduled_preds.(succ) <- unscheduled_preds.(succ) - 1;
        if unscheduled_preds.(succ) = 0 then begin
          ready := Iset.add succ !ready;
          incr n_ready
        end)
      (Graph.succs graph task);
    cursor :=
      (match memo with
      | None -> Scan ignore
      | Some _ -> (
          match List.assoc_opt pair node.children with
          | Some child -> Replay child
          | None -> Scan (fun child -> node.children <- (pair, child) :: node.children)))
  done;
  let entries =
    Array.mapi
      (fun i e ->
        match e with
        | Some e -> e
        | None ->
            failwith
              (Printf.sprintf
                 "List_sched.run: internal error: task %d was never scheduled" i))
      st.entries
  in
  Schedule.make ~graph ~pes ~entries

let run ?weights ?hotspot ?exclusive ?constraints ~graph ~lib ~pes ~policy () =
  let weights =
    match weights with
    | Some w -> w
    | None -> Policy.default_weights ~deadline:(Graph.deadline graph)
  in
  schedule
    (prepare ?hotspot ?exclusive ?constraints ~graph ~lib ~pes ~policy ())
    ~weights

let run_adaptive ?base_weights ?(max_multiplier = 400.0) ?(search_steps = 16)
    ?hotspot ?exclusive ?constraints ~graph ~lib ~pes ~policy () =
  if max_multiplier <= 0.0 then
    invalid_arg "List_sched.run_adaptive: non-positive multiplier";
  let base =
    match base_weights with
    | Some w -> w
    | None -> Policy.default_weights ~deadline:(Graph.deadline graph)
  in
  let ctx = prepare ?hotspot ?exclusive ?constraints ~graph ~lib ~pes ~policy () in
  (* Every attempt starts at the root of one decision-prefix trie: a step
     whose prefix an earlier attempt already scanned re-picks its winner
     at the new weight from the stored candidates. *)
  let memo = ref None in
  let attempt mult =
    Metricsreg.incr m_adaptive_attempts;
    Trace.with_span "sched.attempt"
      ~args:(if Trace.enabled () then [ ("multiplier", Trace.Float mult) ] else [])
    @@ fun () ->
    let weights = { Policy.cost_weight = base.Policy.cost_weight *. mult } in
    (schedule ~memo ctx ~weights, weights)
  in
  let meets (s, _) = Schedule.meets_deadline s in
  let ceiling = attempt max_multiplier in
  if meets ceiling then ceiling
  else begin
    (* At multiplier 0 the cost term vanishes and the schedule is the pure
       performance-driven one; if even that misses the deadline, the
       architecture is simply too small and the caller must react. *)
    let floor = attempt 0.0 in
    if not (meets floor) then floor
    else begin
      (* Bisect for the feasibility boundary; keep the strongest feasible
         weight seen. *)
      let best = ref floor in
      let lo = ref 0.0 and hi = ref max_multiplier in
      for _ = 1 to search_steps do
        let mid = (!lo +. !hi) /. 2.0 in
        let candidate = attempt mid in
        if meets candidate then begin
          best := candidate;
          lo := mid
        end
        else hi := mid
      done;
      !best
    end
  end
