(** The allocation-and-scheduling procedure (ASP) of the paper.

    A list scheduler: repeatedly pick, among all (ready task, PE) pairs, the
    one with the highest dynamic criticality, and commit it. The
    thermal-aware policy folds a HotSpot inquiry's average temperature
    into DC, passing each PE's cumulative power plus the power the
    candidate task would add on the candidate PE — the paper's Section
    2.2 loop. It runs that inquiry's leakage fixed point only as far as a
    candidate can still win the step: every candidate gets an O(n_blocks)
    lower bound on its cost first, each iterate of the fixed point a
    tighter one (see {!pick}), and the picks are those of one converged
    inquiry per pair, bit for bit. *)

module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Hotspot = Tats_thermal.Hotspot

exception Thermal_policy_needs_hotspot
(** Raised when scheduling with [Policy.Thermal_aware] and no [hotspot]. *)

val run :
  ?weights:Policy.weights ->
  ?hotspot:Hotspot.t ->
  ?constraints:Constraints.spec ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  policy:Policy.t ->
  unit ->
  Schedule.t
(** [weights] defaults to {!Policy.default_weights} for the graph's
    deadline; its cost weight must be finite and non-negative (see
    {!pick}). [hotspot] must describe one block per entry of [pes] (same
    order); it is required for [Thermal_aware] and ignored otherwise.
    No two tasks overlap on one PE: a PE is free from its latest finish
    on.

    [constraints] restricts placements to pinned PEs/kinds and keeps
    isolation classes on disjoint PEs (see {!Constraints}); a
    contradictory spec raises {!Constraints.Invalid} before any work, a
    spec with no admissible candidate at some step raises
    {!Constraints.Infeasible} naming [List_sched.run]. Omitted or empty,
    no placement is restricted. An empty [pes] raises [Invalid_argument].

    The result always covers every task; it may miss the deadline — callers
    (e.g. co-synthesis) decide what to do then. Deterministic. *)

val run_adaptive :
  ?base_weights:Policy.weights ->
  ?max_multiplier:float ->
  ?hotspot:Hotspot.t ->
  ?constraints:Constraints.spec ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  policy:Policy.t ->
  unit ->
  Schedule.t * Policy.weights
(** Deadline-adaptive weight selection — "while meeting real time
    constraints" for every policy: a larger cost weight trades schedule
    length for its objective (temperature, power), so this bisects
    (16 steps) for the largest cost weight in
    [0, max_multiplier x base_weights] whose schedule still meets the
    deadline. [max_multiplier] defaults to 400 — the thermal setting, where
    stretching toward the deadline is the point; power-aware callers cap it
    at 1.0 so the heuristic only ever weakens to regain feasibility. At
    multiplier 0 the policy degenerates to Baseline; if even that misses
    the deadline the infeasible schedule is returned (the architecture is
    too small; co-synthesis reacts by adding a PE). Returns the chosen
    schedule and the weights that produced it. A [max_multiplier] that is
    not finite and positive raises [Invalid_argument].

    The attempts share a decision-prefix memo, a trie keyed by the
    committed (task, PE) choices. It rests on one invariant: a step's
    admissible candidates, and every input of their DC except the cost
    weight (start times, costs, thermal inquiries), depend only on the
    decisions committed before it. So each trie node stores, per
    candidate in scan order, the weight-free part of {!Dc.value}
    ({!Dc.part}), the cost's lower bound and, once some attempt's {!pick}
    needed it, the exact cost; an attempt re-picks the winner of a step
    some earlier attempt reached with {!Dc.weigh} at its own weight,
    issuing only the inquiries no earlier attempt needed there, and
    computes start times only once its decisions leave every earlier
    attempt's path. A thermal candidate an earlier attempt pruned keeps
    its tightened bound in the node and its stopped iterate in its slot
    of the step's table, so a later attempt that needs it resumes its
    fixed point instead of restarting it. Results are bit-identical to
    bisecting over fresh {!run} calls. Memory: at most one node per
    scheduled step of each attempt ([18 x n_tasks]
    nodes), each holding four words per candidate (at most ready tasks x
    PEs), seven on the thermal policy (the seventh its slot), and its
    ready set, which shares all but O(log n) words with its parent's; the
    memo is local to the call and dropped when it returns. A fresh scan
    that follows a replayed step builds on the replayed node (see
    {!scan}). The step tables and their slots live in the inquiry engine,
    under its entry bound ({!Tats_thermal.Inquiry}), and outlive the
    call. Replayed steps are counted in the [sched.replayed_steps]
    metric. *)

(** {1 Step core}

    The greedy loop {!run} and {!run_adaptive} are built from, exposed so
    that {!Online} (release-time floors and a thermal surcharge) shares
    its candidate scan, DC arithmetic, tie-break and commit instead of
    copying them. A caller owns its ready set and loops: {!scan} the ready
    tasks, {!pick} the winner at its weight, {!commit} it (adding newly
    ready successors to its set), until {!scheduled} covers the graph;
    then {!finish}. The step functions touch no [sched.*] counter or
    span: those belong to {!run} and {!run_adaptive} alone. *)

type ctx
(** What a schedule needs that no decision and no weight changes: the
    graph, library and PEs, the policy, static criticalities, idle powers,
    per-pair WCET, WCPC, energy and static cost tables and, for
    [Thermal_aware], the hotspot's inquiry engine. *)

val prepare :
  ?hotspot:Hotspot.t ->
  ?constraints:Constraints.spec ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  policy:Policy.t ->
  unit ->
  ctx
(** Validates and precomputes once per scheduling call, with the
    arguments and exceptions of {!run}; the constraint spec itself is
    checked by {!init}. The static criticalities are
    {!Dc.static_criticality}'s. *)

type state
(** One schedule in progress: committed entries, per-PE availability
    (latest finish) and energies, unscheduled-predecessor counts and the
    constraint checker. *)

val init : ctx -> state
(** A fresh, empty schedule. Builds the constraint checker, so a
    contradictory spec raises {!Constraints.Invalid} here. *)

val scheduled : state -> int
(** Tasks committed so far. *)

val is_ready : state -> Task.id -> bool
(** The task is uncommitted and every predecessor is committed. *)

module Ready : Set.S with type elt = Task.id
(** Ready sets, iterated in ascending task order — the scan order. *)

type candidates
(** One step's admissible (task, PE) candidates, weight-free, in scan
    order (ascending task, then PE): per pair the start time and
    {!Dc.part}, and for the cost a bound per pair, exact costs on demand —
    the lower bound {!scan} stored, the same bound as {!pick} tightened
    it, and the exact cost once {!pick} needed it. Only thermal costs are
    deferred; every other policy's bound is its exact cost. *)

val scan :
  ?floor:(Task.id -> float) ->
  ?surcharge:float array ->
  state ->
  ready:Ready.t ->
  candidates
(** Evaluate every admissible pair of [ready] (each must satisfy
    {!is_ready}): the earliest start (data arrival and PE availability,
    the PE's latest finish, read in O(1)),
    raised to [floor task] when given, and the policy cost plus
    [surcharge.(pe)] when given (one finite entry per PE, or
    [Invalid_argument]). A thermal cost gets a bound per pair,
    exact costs on demand: one step table per scan
    ({!Tats_thermal.Inquiry.step}, keyed by the committed energies and
    idle powers, its base solve run once per distinct step), one
    {!Tats_thermal.Inquiry.leakage_lift} per scan at the largest horizon
    among its thermal pairs, then per pair the O(1)
    {!Dc.cost_thermal_floor} and what its delta-evaluated inquiry needs,
    whose committed energies are averaged over the candidate's finish.

    {b Reuse.} Each scan builds on the state's parent node: the last one
    scanned, or replayed by {!run_adaptive}'s memo, on this state. A
    pair's admissibility and earliest start (before the floor) depend
    only on its task's predecessors' entries, its PE's availability and
    the constraint checker's claims; so for a task the parent also scanned,
    on a PE no {!commit} touched since, both are taken over from the
    parent, in the same scan order. Only the committed PEs' columns and
    the newly ready tasks run the earliest-start and admissibility
    checks. A commit that claims a PE for an isolation class can change
    admissibility on every PE, so the scan after it takes over nothing.
    Start, {!Dc.part} and cost are computed anew for every pair, from
    per-pair tables of the library's WCET, WCPC, energy and static costs
    built once per {!prepare}, by the same expressions as a fresh scan:
    a start floor or surcharge touches exactly these, and the
    result is bit for bit the node a scan from scratch builds.

    {b The thermal floor} is the inquiry seed's mean assembled in O(1)
    from the means of the base response and of the PE's influence column,
    plus the step's leakage lift: the rise that the converged fixed point
    of every thermal pair of the step is sure to add to its seed, at the
    coolest seed among them (the largest horizon) and in the fewest steps
    it can converge in ({!Tats_thermal.Inquiry.seed_floor}). Margins
    cover its rounding, the per-block sum's and the iteration's: it stays
    below the converged mean, so every pick is unchanged (DESIGN.md §6).
    It may lie above the fixed point's first iterates; {!pick} keeps the
    larger of the two. *)

type choice = { task : Task.id; pe : int; start : float }

val pick : caller:string -> state -> candidates -> weight:float -> choice
(** The candidate of highest [Dc.weigh ~part ~cost ~weight] ([weight]
    finite and [>= 0], or [Invalid_argument]); candidates within 1e-12
    of each other tie towards the lower (task, PE) pair. Raises {!Constraints.Infeasible} naming [caller] when
    there is no candidate.

    Exact costs are evaluated on demand, each at most once per
    [candidates]: the candidate of highest DC bound at scan time first,
    then, in scan order, every candidate whose bound reaches within
    [1e-9 (1 + |E|) + 1e-12 n] of [E], the best exact DC so far ([n]
    candidates). A candidate below that cannot change the pick, so the
    result is the one every exact cost would give.

    [pick] refines candidates rather than evaluating them outright: a
    thermal candidate's fixed point runs one damped step at a time, each
    iterate's mean temperature a lower bound on its cost that never falls
    (see {!Dc.cost_thermal}), and stops as soon as the running maximum of
    {!scan}'s floor and those bounds leaves the candidate short of the
    reach, or converges. That running maximum is kept in [candidates],
    and the iterate in the candidate's slot of the step's
    table, so a later pick (at another weight, or another memo attempt)
    resumes it exactly, and an identical candidate of the step (same PE,
    horizon and task power) shares it: it costs a mean when the slot's
    iterate already prunes it or the slot converged. The inquiries'
    counters are flushed to the engine once per pick. The seeding
    candidate is chosen by the bound {!scan} stored, not the tightened
    one, so every pick of a node refines in the same order whether it was
    replayed or scanned afresh.

    Only a fixed point that runs to [max_iter] raises
    {!Tats_thermal.Steady.Runaway}: a candidate whose bound rules it out
    first — its lifted floor before any inquiry, or an iterate — stops
    there and no longer raises it; one refined until it runs away still
    does. The leakage lift prunes more candidates before their inquiry,
    so fewer of them can raise it. No sort, no
    allocation beyond the inquiries. *)

val commit : on_ready:(Task.id -> unit) -> state -> choice -> Schedule.entry
(** Commit [choice] irrevocably and return its entry. [on_ready] is called
    for each successor this commit makes ready, in successor order. *)

val finish : state -> Schedule.t
(** The schedule of a state in which every task is committed. *)

(** {1 Inspection}

    For differential tests of the step core: an observer that sees every
    node a scheduler steps through (each {!scan}, fresh or built on its
    parent, and each step {!run_adaptive}'s memo replays), and read access
    to the state it was built from. With no observer set, a scan pays one
    atomic load for it. *)
module Inspect : sig
  type view = {
    v_ready : Ready.t;  (** the ready set scanned *)
    v_floor : (Task.id -> float) option;  (** the scan's arguments *)
    v_surcharge : float array option;
    v_pairs : int array;  (** [task * n_pes + pe], in scan order *)
    v_starts : float array;
    v_parts : float array;  (** {!Dc.part} *)
    v_bounds : float array;
        (** the cost {!scan} stored, surcharge included: exact except on
            the thermal policy, where it is a lower bound *)
    v_floors : float array;
        (** the node's own bounds, which each {!pick} of it raises in
            place to the running maximum of the scan's bound and every
            iterate bound: read them after the pick *)
    v_costs : float array;
        (** the node's own exact costs, [nan] until a {!pick} evaluates
            them, in place *)
  }

  val set_observer : (state -> view -> unit) option -> unit
  (** Called, on the domain that scheduled, with the state as the node
      was built (before that step's commit). Process-wide; the test that
      sets it clears it. *)

  val graph : state -> Graph.t
  (** The graph being scheduled. *)

  val entry : state -> Task.id -> Schedule.entry option
  (** The task's committed entry, if any. *)

  val pe_energy : state -> float array
  (** The committed energy per PE, summed in commit order. *)

  val admissible : state -> task:Task.id -> pe:int -> bool
  (** {!Constraints.admissible} under the state's claims, evaluated now. *)

  val criticality : state -> Task.id -> float
  (** The static criticality the state scores with. *)
end
