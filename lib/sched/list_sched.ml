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

(* What a schedule needs that no decision and no weight changes, validated
   and computed once per [run], [run_adaptive], [Online.plan],
   [Bus_sched.run] or [Periodic.schedule] call. *)
type ctx = {
  graph : Graph.t;
  lib : Library.t;
  pes : Pe.inst array;
  policy : Policy.t;
  (* Per task, ascending: the tasks it may overlap on one PE ([exclusive]
     with it). *)
  partners : Task.id array array;
  constraints : Constraints.spec;
  sc : float array;
  idle : float array;
  (* Shared by every candidate evaluation; only for the thermal policy. *)
  engine : Inquiry.t option;
}

let prepare ?hotspot ?exclusive
    ?(constraints = Constraints.empty) ?sc ~graph ~lib ~pes ~policy () =
  if Array.length pes = 0 then invalid_arg "List_sched: empty PE array";
  let engine =
    match (policy, hotspot) with
    | Policy.Thermal_aware, None -> raise Thermal_policy_needs_hotspot
    | Policy.Thermal_aware, Some h ->
        if Hotspot.n_blocks h <> Array.length pes then
          invalid_arg "List_sched: hotspot must have one block per PE";
        Some (Hotspot.inquiry h)
    | (Policy.Baseline | Policy.Power_aware _), _ -> None
  in
  let n = Graph.n_tasks graph in
  let partners =
    match exclusive with
    | None -> Array.make n [||]
    | Some exclusive ->
        let tasks = List.init n Fun.id in
        Array.init n (fun v ->
            Array.of_list (List.filter (fun u -> u <> v && exclusive u v) tasks))
  in
  {
    graph;
    lib;
    pes;
    policy;
    partners;
    constraints;
    sc = (match sc with Some sc -> sc | None -> Dc.static_criticality lib graph);
    idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes;
    engine;
  }

type state = {
  ctx : ctx;
  entries : Schedule.entry option array;
  pe_tasks : Schedule.entry list array; (* per PE, latest finish first *)
  pe_energy : float array;
  unscheduled_preds : int array;
  (* The checker is stateful, so it is rebuilt per schedule. *)
  checker : Constraints.checker;
  mutable n_scheduled : int;
}

let init ctx =
  let n = Graph.n_tasks ctx.graph and n_pes = Array.length ctx.pes in
  {
    ctx;
    entries = Array.make n None;
    pe_tasks = Array.make n_pes [];
    pe_energy = Array.make n_pes 0.0;
    unscheduled_preds =
      Array.init n (fun v -> List.length (Graph.preds ctx.graph v));
    checker = Constraints.make ctx.constraints ~n_tasks:n ~pes:ctx.pes;
    n_scheduled = 0;
  }

let scheduled st = st.n_scheduled

let is_ready st task =
  st.entries.(task) = None && st.unscheduled_preds.(task) = 0

(* [partners] (ascending) holds [task]. *)
let is_partner partners task =
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let p = partners.(mid) in
    p = task || if p < task then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length partners)

(* Earliest start of [task] on [pe]: data from every predecessor must have
   arrived, and the PE must be free — except for mutually exclusive
   predecessors-by-condition, which may overlap. The PE's entries are kept
   latest finish first, so its availability is the finish of the first
   entry that is not one of [task]'s partners: O(preds + partners on the
   PE) per candidate. *)
let earliest_start st ~comm task pe =
  let ready =
    List.fold_left
      (fun acc (pred, data) ->
        match st.entries.(pred) with
        | None -> assert false (* only called on ready tasks *)
        | Some e ->
            let delay = Comm.delay_between comm ~src:e.Schedule.pe ~dst:pe ~data in
            Float.max acc (e.Schedule.finish +. delay))
      0.0 (Graph.preds st.ctx.graph task)
  in
  let partners = st.ctx.partners.(task) in
  let rec avail = function
    | [] -> 0.0
    | (e : Schedule.entry) :: rest ->
        if is_partner partners e.Schedule.task then avail rest
        else Float.max 0.0 e.Schedule.finish
  in
  Float.max ready (avail st.pe_tasks.(pe))

(* One scheduling step's admissible candidates under a fixed decision
   prefix, in scan order (ascending task, then PE). Without a start floor,
   horizon or surcharge (the offline case) everything stored is a function
   of the prefix alone, which is what lets the memo replay it; only
   [Dc.weigh] brings in the weight.

   A thermal candidate's cost is a leakage fixed point, so [scan] stores a
   lower bound on it ([Dc.cost_thermal_floor]) and what the exact
   inquiry needs beyond the pair and start, and [pick] runs a candidate's
   fixed point only while its bound, tightened to the current iterate's,
   lets it reach the best exact DC: the iterate stops in the engine's
   cache, and the bound in [floors], for a later pick to resume. Every
   other policy's cost is exact at scan time: then
   [floors == scan_floors == costs]. *)
type node = {
  pairs : int array; (* task * n_pes + pe *)
  parts : float array; (* Dc.part *)
  floors : float array; (* a lower bound on the cost, tightened by [pick] *)
  scan_floors : float array; (* the bound [scan] stored *)
  costs : float array; (* the cost, or nan while not evaluated *)
  starts : float array;
  thermal : thermal option;
  mutable children : (int * node) list; (* by the pair committed next *)
}

(* The scan's inputs to the thermal costs of its candidates. *)
and thermal = {
  base : Inquiry.base; (* the step's influence response *)
  horizon : float option;
  surcharge : float array option;
}

type candidates = node

module Ready = Set.Make (Int)

(* Score every admissible (ready task, PE) pair, weight-free. *)
let scan ?floor ?horizon ?surcharge st ~ready =
  let { graph; lib; pes; policy; sc; engine; _ } = st.ctx in
  let n_pes = Array.length pes in
  let comm = Library.comm lib in
  let cap = Ready.cardinal ready * n_pes in
  let pairs = Array.make cap 0 in
  let parts = Array.make cap 0.0 in
  let floors = Array.make cap 0.0 in
  let starts = Array.make cap 0.0 in
  (* One base solve per scanned step: the influence response to the
     committed PE energies. Candidates are bounded, and refined if
     [pick] needs them, against it in O(n_blocks) each instead of
     re-solving from scratch. *)
  let thermal =
    Option.map
      (fun e ->
        { base = Inquiry.base_response e ~power:st.pe_energy; horizon; surcharge })
      engine
  in
  let k = ref 0 in
  Ready.iter
    (fun task ->
      let tt = (Graph.task graph task).Task.task_type in
      Array.iteri
        (fun pe (inst : Pe.inst) ->
          if Constraints.admissible st.checker ~task ~pe ~pes then begin
            let kind = inst.Pe.kind.Pe.kind_id in
            let wcet = Library.wcet lib ~task_type:tt ~kind in
            let start = earliest_start st ~comm task pe in
            let start =
              match floor with None -> start | Some f -> Float.max start (f task)
            in
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
                  Dc.cost_thermal_floor ~engine:(Option.get engine)
                    ~base:(Option.get thermal).base
                    ~finish:(Option.value horizon ~default:finish)
                    ~pe ~task_power:(Library.wcpc lib ~task_type:tt ~kind)
            in
            let cost =
              match surcharge with None -> cost | Some s -> cost +. s.(pe)
            in
            pairs.(!k) <- (task * n_pes) + pe;
            parts.(!k) <- Dc.part ~sc:sc.(task) ~wcet ~start;
            floors.(!k) <- cost;
            starts.(!k) <- start;
            incr k
          end)
        pes)
    ready;
  let trim a = if !k = cap then a else Array.sub a 0 !k in
  let floors = trim floors in
  {
    pairs = trim pairs;
    parts = trim parts;
    floors =
      (match thermal with None -> floors | Some _ -> Array.copy floors);
    scan_floors = floors;
    costs =
      (match thermal with None -> floors | Some _ -> Array.make !k Float.nan);
    starts = trim starts;
    thermal;
    children = [];
  }

type choice = { task : Task.id; pe : int; start : float }

(* [Dc.weigh], the same expression: inlined here, where a call into [Dc]
   would box its result once per candidate under separate compilation
   ([-opaque]), so that [pick] allocates nothing. *)
let[@inline] weigh part cost weight = part -. (weight *. cost)

(* Run thermal candidate [i]'s inquiry (resuming the iterate an earlier
   pick stopped at, from the engine's cache) until its DC bound at
   [weight] falls below [reach], which leaves its cost unevaluated, or it
   converges, which stores the cost. Its floor follows every iterate. The
   inquiry's finish and task power are derived again from the pair and
   start. *)
let refine st node i ~weight ~reach =
  match node.thermal with
  | None -> ()
  | Some th ->
      let { graph; lib; pes; idle; engine; _ } = st.ctx in
      let n_pes = Array.length pes in
      let task = node.pairs.(i) / n_pes and pe = node.pairs.(i) mod n_pes in
      let task_type = (Graph.task graph task).Task.task_type in
      let kind = pes.(pe).Pe.kind.Pe.kind_id in
      let finish =
        match th.horizon with
        | Some h -> h
        | None -> node.starts.(i) +. Library.wcet lib ~task_type ~kind
      in
      let surcharged c =
        match th.surcharge with None -> c | Some s -> c +. s.(pe)
      in
      let pruned = ref false in
      let stop bound =
        let floor = surcharged bound in
        node.floors.(i) <- floor;
        pruned := weigh node.parts.(i) floor weight < reach;
        !pruned
      in
      let c =
        surcharged
          (Dc.cost_thermal ~stop ~engine:(Option.get engine) ~base:th.base ~idle
             ~finish ~pe ~task_power:(Library.wcpc lib ~task_type ~kind))
      in
      if not !pruned then begin
        node.floors.(i) <- c;
        node.costs.(i) <- c
      end

let[@inline] bound node i ~weight = weigh node.parts.(i) node.floors.(i) weight

(* The lowest DC bound that can still reach [best], the best exact DC so
   far, of a node with [n] candidates. The 1e-9 margin dwarfs the
   rounding of the bounds; the [n * 1e-12] term covers the sequential
   1e-12 tie-break, which can carry a difference of at most 1e-12 per
   candidate — so skipping the candidates below it never changes a pick. *)
let[@inline] reach best n =
  best -. ((1e-9 *. (1.0 +. Float.abs best)) +. (1e-12 *. float_of_int n))

(* The highest-DC candidate at [weight]. Scan order and the 1e-12
   tie-break (towards the lower pair) are those of a direct scan, so a
   replayed step picks what a fresh one would. Two linear passes, no
   sort: the candidate of highest scan-time bound is evaluated and seeds
   the best exact DC; then, in scan order, every candidate whose bound
   reaches the best so far is refined until it no longer does or is
   exact, and an exact one raises the best and enters the tie-break. A
   candidate left out has a DC below the pick's by far more than the tie
   window.

   The seed candidate is chosen by the bound [scan] stored, not by the
   tightened one: that keeps the order of evaluation, and so every
   refinement's depth, the same whether [run_adaptive] replays this node
   or scans it afresh. *)
let pick ~caller st node ~weight =
  if not (weight >= 0.0) then invalid_arg "List_sched.pick: negative weight";
  let n = Array.length node.pairs in
  if n = 0 then
    raise (Constraints.Infeasible (Constraints.infeasible_msg caller));
  let top = ref 0
  and top_bound = ref (weigh node.parts.(0) node.scan_floors.(0) weight) in
  for i = 1 to n - 1 do
    let b = weigh node.parts.(i) node.scan_floors.(i) weight in
    if b > !top_bound then begin
      top := i;
      top_bound := b
    end
  done;
  if Float.is_nan node.costs.(!top) then
    refine st node !top ~weight ~reach:Float.neg_infinity;
  let reached = ref (weigh node.parts.(!top) node.costs.(!top) weight) in
  let best = ref (-1) and best_dc = ref 0.0 in
  for i = 0 to n - 1 do
    if bound node i ~weight >= reach !reached n then begin
      if Float.is_nan node.costs.(i) then
        refine st node i ~weight ~reach:(reach !reached n);
      if not (Float.is_nan node.costs.(i)) then begin
        let dc = weigh node.parts.(i) node.costs.(i) weight in
        if dc > !reached then reached := dc;
        if
          !best < 0
          || dc > !best_dc +. 1e-12
          || Float.abs (dc -. !best_dc) <= 1e-12
             && node.pairs.(i) < node.pairs.(!best)
        then begin
          best := i;
          best_dc := dc
        end
      end
    end
  done;
  let n_pes = Array.length st.ctx.pes in
  let pair = node.pairs.(!best) in
  { task = pair / n_pes; pe = pair mod n_pes; start = node.starts.(!best) }

let commit ~on_ready st { task; pe; start } =
  let { graph; lib; pes; _ } = st.ctx in
  let tt = (Graph.task graph task).Task.task_type in
  let kind = pes.(pe).Pe.kind.Pe.kind_id in
  let finish = start +. Library.wcet lib ~task_type:tt ~kind in
  let energy = Library.energy lib ~task_type:tt ~kind in
  Constraints.commit st.checker ~task ~pe;
  let entry = { Schedule.task; pe; start; finish; energy } in
  st.entries.(task) <- Some entry;
  let rec insert = function
    | (e : Schedule.entry) :: rest when e.Schedule.finish > finish ->
        e :: insert rest
    | later -> entry :: later
  in
  st.pe_tasks.(pe) <- insert st.pe_tasks.(pe);
  st.pe_energy.(pe) <- st.pe_energy.(pe) +. energy;
  st.n_scheduled <- st.n_scheduled + 1;
  List.iter
    (fun (succ, _) ->
      st.unscheduled_preds.(succ) <- st.unscheduled_preds.(succ) - 1;
      if st.unscheduled_preds.(succ) = 0 then on_ready succ)
    (Graph.succs graph task);
  entry

let finish st =
  let entries =
    Array.mapi
      (fun i e ->
        match e with
        | Some e -> e
        | None ->
            failwith
              (Printf.sprintf
                 "List_sched: internal error: task %d was never scheduled" i))
      st.entries
  in
  Schedule.make ~graph:st.ctx.graph ~pes:st.ctx.pes ~entries

(* Where the current step's candidates come from: a node an earlier attempt
   scanned, or a fresh scan, handed to [attach] to extend the memo. *)
type cursor = Replay of node | Scan of (node -> unit)

(* The list scheduler. With [memo], the steps of a decision prefix that an
   earlier call on the same memo already scanned are replayed from it. *)
let schedule ?memo ctx ~weights =
  let n = Graph.n_tasks ctx.graph and n_pes = Array.length ctx.pes in
  Trace.with_span "sched.run"
    ~args:
      (if Trace.enabled () then
         [
           ("policy", Trace.Str (Format.asprintf "%a" Policy.pp ctx.policy));
           ("tasks", Trace.Int n);
           ("pes", Trace.Int n_pes);
         ]
       else [])
  @@ fun () ->
  let st = init ctx in
  let ready = ref (Ready.of_list (Graph.sources ctx.graph)) in
  let n_ready = ref (Ready.cardinal !ready) in
  let on_ready succ =
    ready := Ready.add succ !ready;
    incr n_ready
  in
  let weight = weights.Policy.cost_weight in
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
          let node = scan st ~ready:!ready in
          attach node;
          node
    in
    let choice = pick ~caller:"List_sched.run" st node ~weight in
    ignore (commit ~on_ready st choice : Schedule.entry);
    ready := Ready.remove choice.task !ready;
    decr n_ready;
    cursor :=
      (match memo with
      | None -> Scan ignore
      | Some _ -> (
          let pair = (choice.task * n_pes) + choice.pe in
          match List.assoc_opt pair node.children with
          | Some child -> Replay child
          | None -> Scan (fun child -> node.children <- (pair, child) :: node.children)))
  done;
  finish st

let run ?weights ?hotspot ?exclusive ?constraints ~graph ~lib ~pes ~policy () =
  let weights =
    match weights with
    | Some w -> w
    | None -> Policy.default_weights ~deadline:(Graph.deadline graph)
  in
  schedule
    (prepare ?hotspot ?exclusive ?constraints ~graph ~lib ~pes ~policy ())
    ~weights

let run_adaptive ?base_weights ?(max_multiplier = 400.0) ?hotspot ?exclusive
    ?constraints ~graph ~lib ~pes ~policy () =
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
      for _ = 1 to 16 do
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
