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
   and computed once per [run], [run_adaptive] or [Online.plan] call. *)
type ctx = {
  graph : Graph.t;
  lib : Library.t;
  pes : Pe.inst array;
  policy : Policy.t;
  constraints : Constraints.spec;
  sc : float array;
  idle : float array;
  (* Per pair [task * n_pes + pe]: the library's WCET, WCPC and energy of
     the task on that PE's kind, and the policy's cost where it depends on
     nothing else (heuristics 1 and 3; 0 otherwise). *)
  wcet : float array;
  wcpc : float array;
  energy : float array;
  static_cost : float array;
  (* Shared by every candidate evaluation; only for the thermal policy. *)
  engine : Inquiry.t option;
}

let prepare ?hotspot ?(constraints = Constraints.empty) ~graph ~lib ~pes ~policy () =
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
  let n_pes = Array.length pes in
  let per_pair f =
    Array.init (n * n_pes) (fun pair ->
        f
          ~task_type:(Graph.task graph (pair / n_pes)).Task.task_type
          ~kind:pes.(pair mod n_pes).Pe.kind.Pe.kind_id)
  in
  {
    graph;
    lib;
    pes;
    policy;
    constraints;
    sc = Dc.static_criticality lib graph;
    idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes;
    wcet = per_pair (Library.wcet lib);
    wcpc = per_pair (Library.wcpc lib);
    energy = per_pair (Library.energy lib);
    static_cost =
      (match policy with
      | Policy.Power_aware Policy.Min_task_power ->
          per_pair (Dc.cost_task_power lib)
      | Policy.Power_aware Policy.Min_task_energy ->
          per_pair (Dc.cost_task_energy lib)
      | Policy.Baseline | Policy.Thermal_aware
      | Policy.Power_aware Policy.Min_pe_average_power ->
          [||]);
    engine;
  }

module Ready = Set.Make (Int)

(* One scheduling step's admissible candidates under a fixed decision
   prefix, in scan order (ascending task, then PE). Without a start floor
   or surcharge (the offline case) everything stored is a function
   of the prefix alone, which is what lets the memo replay it; only
   [Dc.weigh] brings in the weight.

   A thermal candidate's cost is a leakage fixed point, so [scan] stores a
   lower bound on it ([Dc.cost_thermal_floor], lifted by the step's
   leakage) and what the exact inquiry needs beyond the pair and start,
   and [pick] runs a candidate's fixed point only while its bound, raised
   to the current iterate's when that is higher, lets it reach the best
   exact DC: the iterate stops in its slot of the step's table, and the
   bound in [floors], for a later pick to resume. Every
   other policy's cost is exact at scan time: then
   [floors == scan_floors == costs]. *)
type node = {
  ready : Ready.t; (* the ready set scanned *)
  pairs : int array; (* task * n_pes + pe *)
  earliest : float array; (* [earliest_start], before any start floor *)
  starts : float array; (* [earliest] raised to the floor; [== earliest] without one *)
  parts : float array; (* Dc.part *)
  floors : float array; (* a lower bound on the cost, tightened by [pick] *)
  scan_floors : float array; (* the bound [scan] stored *)
  costs : float array; (* the cost, or nan while not evaluated *)
  thermal : thermal option;
  mutable children : (int * node) list; (* by the pair committed next *)
}

(* The scan's inputs to the thermal costs of its candidates. *)
and thermal = {
  step : Inquiry.step; (* the engine's table for the step's base *)
  surcharge : float array option;
  slots : Inquiry.slot array; (* per candidate, its slot in [step] *)
}

type candidates = node

type state = {
  ctx : ctx;
  entries : Schedule.entry option array;
  pe_avail : float array; (* per PE, its latest finish *)
  pe_energy : float array;
  unscheduled_preds : int array;
  (* The checker is stateful, so it is rebuilt per schedule. *)
  checker : Constraints.checker;
  mutable n_scheduled : int;
  (* What the next [scan] builds on: the node last scanned or replayed on
     this state, and the PEs committed to since ([dirty]). A commit that
     claims a PE for an isolation class can change admissibility on every
     PE ([stale]): the next scan then starts from scratch. *)
  mutable parent : node option;
  dirty : bool array;
  mutable stale : bool;
  tally : Inquiry.tally; (* a pick's inquiry counters, flushed once *)
}

let init ctx =
  let n = Graph.n_tasks ctx.graph and n_pes = Array.length ctx.pes in
  {
    ctx;
    entries = Array.make n None;
    pe_avail = Array.make n_pes 0.0;
    pe_energy = Array.make n_pes 0.0;
    unscheduled_preds =
      Array.init n (fun v -> List.length (Graph.preds ctx.graph v));
    checker = Constraints.make ctx.constraints ~n_tasks:n ~pes:ctx.pes;
    n_scheduled = 0;
    parent = None;
    dirty = Array.make n_pes false;
    stale = false;
    tally = Inquiry.tally ();
  }

let scheduled st = st.n_scheduled

let is_ready st task =
  st.entries.(task) = None && st.unscheduled_preds.(task) = 0

(* Earliest start of [task] on [pe]: data from every predecessor must have
   arrived, and the PE must be free: O(preds) per candidate. *)
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
  Float.max ready st.pe_avail.(pe)

(* The next scan builds on [node]. *)
let adopt st node =
  st.parent <- Some node;
  Array.fill st.dirty 0 (Array.length st.dirty) false;
  st.stale <- false

(* An observer of every node a scheduler steps through, for the
   differential tests, and read access to the state it was built from. *)
module Inspect = struct
  type view = {
    v_ready : Ready.t;
    v_floor : (Task.id -> float) option;
    v_surcharge : float array option;
    v_pairs : int array;
    v_starts : float array;
    v_parts : float array;
    v_bounds : float array;
    v_floors : float array;
    v_costs : float array;
  }

  let observer : (state -> view -> unit) option Atomic.t = Atomic.make None
  let set_observer f = Atomic.set observer f

  (* One atomic load while no observer is set. *)
  let observe ?floor ?surcharge st node =
    match Atomic.get observer with
    | None -> ()
    | Some f ->
        f st
          {
            v_ready = node.ready;
            v_floor = floor;
            v_surcharge = surcharge;
            v_pairs = Array.copy node.pairs;
            v_starts = Array.copy node.starts;
            v_parts = Array.copy node.parts;
            v_bounds = Array.copy node.scan_floors;
            v_floors = node.floors;
            v_costs = node.costs;
          }

  let graph st = st.ctx.graph
  let entry st task = st.entries.(task)
  let pe_energy st = Array.copy st.pe_energy

  let admissible st ~task ~pe =
    Constraints.admissible st.checker ~task ~pe ~pes:st.ctx.pes

  let criticality st task = st.ctx.sc.(task)
end

(* Score every admissible (ready task, PE) pair, weight-free.

   A pair's admissibility and earliest start depend only on its task's
   predecessors' entries (fixed once the task is ready), its PE's
   availability and the checker's claims. So a task the parent node also
   scanned keeps both on every PE no commit touched since, and they are
   copied from the parent, in the same scan order; only the committed
   PEs' columns and the newly ready tasks are evaluated afresh.
   Everything a start floor or a surcharge touches (start, part, cost) is
   computed anew for every pair, from the context's per-pair tables, by
   the same expressions as on a fresh scan. *)
let scan ?floor ?surcharge st ~ready =
  let { lib; pes; policy; sc; engine; wcet; wcpc; energy; static_cost; _ } =
    st.ctx
  in
  let n_pes = Array.length pes in
  (match surcharge with
  | Some s when Array.length s <> n_pes || not (Array.for_all Float.is_finite s) ->
      invalid_arg "List_sched.scan: surcharge needs one finite entry per PE"
  | _ -> ());
  let comm = Library.comm lib in
  let cap = Ready.cardinal ready * n_pes in
  let pairs = Array.make cap 0 in
  let earliest = Array.make cap 0.0 in
  let starts =
    match floor with None -> earliest | Some _ -> Array.make cap 0.0
  in
  let parts = Array.make cap 0.0 in
  let floors = Array.make cap 0.0 in
  (* One table per step base, kept by the engine: the influence response
     to the committed PE energies, and the slots of the inquiries asked
     on it. Candidates are bounded, and refined if [pick] needs them,
     against it in O(1) and O(n_blocks) each instead of re-solving from
     scratch. *)
  let step =
    Option.map (fun e -> Inquiry.step e ~power:st.pe_energy ~idle:st.ctx.idle) engine
  in
  let parent =
    match st.parent with Some p when not st.stale -> Some p | _ -> None
  in
  let parent_ready, parent_pairs, parent_earliest =
    match parent with
    | Some p -> (p.ready, p.pairs, p.earliest)
    | None -> (Ready.empty, [||], [||])
  in
  let n_parent = Array.length parent_pairs in
  (* [j] walks the parent's pairs alongside the scan. *)
  let j = ref 0 and k = ref 0 in
  Ready.iter
    (fun task ->
      let first = task * n_pes in
      while !j < n_parent && parent_pairs.(!j) < first do
        incr j
      done;
      let known = Ready.mem task parent_ready in
      for pe = 0 to n_pes - 1 do
        let pair = first + pe in
        let inherited = !j < n_parent && parent_pairs.(!j) = pair in
        if inherited then incr j;
        let reuse = known && not st.dirty.(pe) in
        if
          if reuse then inherited
          else Constraints.admissible st.checker ~task ~pe ~pes
        then begin
          let e =
            if reuse then parent_earliest.(!j - 1)
            else earliest_start st ~comm task pe
          in
          let start =
            match floor with None -> e | Some f -> Float.max e (f task)
          in
          let wcet = wcet.(pair) in
          let finish = start +. wcet in
          let cost =
            match policy with
            | Policy.Baseline -> 0.0
            | Policy.Power_aware (Policy.Min_task_power | Policy.Min_task_energy)
              ->
                static_cost.(pair)
            | Policy.Power_aware Policy.Min_pe_average_power ->
                Dc.cost_pe_average_power lib ~pe_energy:st.pe_energy.(pe)
                  ~task_energy:energy.(pair) ~finish
            | Policy.Thermal_aware ->
                (* Bounded below, once the step's lift is known. *)
                0.0
          in
          let cost =
            match surcharge with None -> cost | Some s -> cost +. s.(pe)
          in
          pairs.(!k) <- pair;
          earliest.(!k) <- e;
          starts.(!k) <- start;
          parts.(!k) <- Dc.part ~sc:sc.(task) ~wcet ~start;
          floors.(!k) <- cost;
          incr k
        end
      done)
    ready;
  (* A thermal candidate's floor is its linear seed's mean plus the
     leakage lift of the step at the latest finish among its candidates
     (at most the lift at each one's own), found by one more pass. *)
  (match (engine, step) with
  | Some engine, Some step when !k > 0 ->
      let finish_of i = starts.(i) +. wcet.(pairs.(i)) in
      let widest = ref 0.0 in
      for i = 0 to !k - 1 do
        widest := Float.max !widest (Dc.thermal_horizon ~finish:(finish_of i))
      done;
      let base = Inquiry.step_base step in
      let lift =
        Inquiry.leakage_lift engine ~base ~idle:st.ctx.idle ~horizon:!widest
      in
      for i = 0 to !k - 1 do
        let pair = pairs.(i) in
        let pe = pair mod n_pes in
        let cost =
          Dc.cost_thermal_floor ~engine ~base ~lift ~finish:(finish_of i) ~pe
            ~task_power:wcpc.(pair)
        in
        floors.(i) <-
          (match surcharge with None -> cost | Some s -> cost +. s.(pe))
      done
  | _ -> ());
  let trim a = if !k = cap then a else Array.sub a 0 !k in
  let floors = trim floors and earliest = trim earliest in
  let thermal =
    Option.map
      (fun step ->
        { step; surcharge; slots = Array.make !k Inquiry.no_slot })
      step
  in
  let node =
    {
      ready;
      pairs = trim pairs;
      earliest;
      starts = (match floor with None -> earliest | Some _ -> trim starts);
      parts = trim parts;
      floors =
        (match thermal with None -> floors | Some _ -> Array.copy floors);
      scan_floors = floors;
      costs =
        (match thermal with None -> floors | Some _ -> Array.make !k Float.nan);
      thermal;
      children = [];
    }
  in
  adopt st node;
  Inspect.observe ?floor ?surcharge st node;
  node

type choice = { task : Task.id; pe : int; start : float }

(* [Dc.weigh], the same expression: inlined here, where a call into [Dc]
   would box its result once per candidate under separate compilation
   ([-opaque]), so that [pick] allocates nothing. *)
let[@inline] weigh part cost weight = part -. (weight *. cost)

(* Run thermal candidate [i]'s inquiry (resuming the iterate an earlier
   pick, or an identical candidate, stopped at in its slot) until its DC
   bound at [weight] falls below [reach], which leaves its cost
   unevaluated, or it converges, which stores the cost. Its floor is the
   running maximum of the stored floor and every iterate's bound. The
   inquiry's finish and task power are derived again from the pair and
   start. *)
let refine st node i ~weight ~reach =
  match node.thermal with
  | None -> ()
  | Some th ->
      let { pes; engine; wcet; wcpc; _ } = st.ctx in
      let n_pes = Array.length pes in
      let pair = node.pairs.(i) in
      let pe = pair mod n_pes in
      let finish = node.starts.(i) +. wcet.(pair) in
      let surcharge = match th.surcharge with None -> 0.0 | Some s -> s.(pe) in
      let pruned = ref false in
      (* The iterates climb from the seed, below the lifted floor [scan]
         stored at first: the floor keeps the larger bound. *)
      let stop bound =
        let bound =
          match th.surcharge with None -> bound | Some _ -> bound +. surcharge
        in
        let floor = node.floors.(i) in
        let floor = if bound > floor then bound else floor in
        node.floors.(i) <- floor;
        pruned := weigh node.parts.(i) floor weight < reach;
        !pruned
      in
      let c =
        Dc.cost_thermal ~stop ~engine:(Option.get engine) ~step:th.step
          ~tally:st.tally ~slots:th.slots i ~finish ~pe ~task_power:wcpc.(pair)
      in
      let c = match th.surcharge with None -> c | Some _ -> c +. surcharge in
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
  if not (weight >= 0.0 && Float.is_finite weight) then
    invalid_arg "List_sched.pick: weight must be finite and non-negative";
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
  (match (node.thermal, st.ctx.engine) with
  | Some _, Some engine -> Inquiry.flush engine st.tally
  | _ -> ());
  let n_pes = Array.length st.ctx.pes in
  let pair = node.pairs.(!best) in
  { task = pair / n_pes; pe = pair mod n_pes; start = node.starts.(!best) }

let commit ~on_ready st { task; pe; start } =
  let { graph; pes; wcet; energy; _ } = st.ctx in
  let pair = (task * Array.length pes) + pe in
  let finish = start +. wcet.(pair) in
  let energy = energy.(pair) in
  if Constraints.commit st.checker ~task ~pe then st.stale <- true;
  st.dirty.(pe) <- true;
  let entry = { Schedule.task; pe; start; finish; energy } in
  st.entries.(task) <- Some entry;
  (* Every start is at least its PE's availability, so a PE's finishes
     never decrease in commit order: the latest is the last. *)
  st.pe_avail.(pe) <- finish;
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
          adopt st node;
          Inspect.observe st node;
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

let run ?weights ?hotspot ?constraints ~graph ~lib ~pes ~policy () =
  let weights =
    match weights with
    | Some w -> w
    | None -> Policy.default_weights ~deadline:(Graph.deadline graph)
  in
  schedule
    (prepare ?hotspot ?constraints ~graph ~lib ~pes ~policy ())
    ~weights

let run_adaptive ?base_weights ?(max_multiplier = 400.0) ?hotspot ?constraints
    ~graph ~lib ~pes ~policy () =
  if not (max_multiplier > 0.0 && Float.is_finite max_multiplier) then
    invalid_arg "List_sched.run_adaptive: multiplier must be finite and positive";
  let base =
    match base_weights with
    | Some w -> w
    | None -> Policy.default_weights ~deadline:(Graph.deadline graph)
  in
  let ctx = prepare ?hotspot ?constraints ~graph ~lib ~pes ~policy () in
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
