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
  ?exclusive:(Task.id -> Task.id -> bool) ->
  ?constraints:Constraints.spec ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  policy:Policy.t ->
  unit ->
  Schedule.t
(** [weights] defaults to {!Policy.default_weights} for the graph's
    deadline; its cost weight must be non-negative (see {!pick}). [hotspot] must describe one block per entry of [pes] (same
    order); it is required for [Thermal_aware] and ignored otherwise.
    [exclusive] enables conditional-task-graph time-sharing: mutually
    exclusive tasks may overlap on one PE. It is asked once per ordered
    pair of tasks, up front, never per candidate.

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
  ?exclusive:(Task.id -> Task.id -> bool) ->
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
    schedule and the weights that produced it.

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
    its tightened bound in the node and its stopped iterate in the
    inquiry engine's cache, so a later attempt that needs it resumes its
    fixed point instead of restarting it. Results are bit-identical to
    bisecting over fresh {!run} calls. Memory: at most one node per
    scheduled step of each attempt ([18 x n_tasks]
    nodes), each holding four words per candidate (at most ready tasks x
    PEs), six on the thermal policy plus the step's base response (two
    floats per PE); the memo is local to the call and dropped when it
    returns. The stopped iterates live in the engine's cache, under its
    entry bound ({!Tats_thermal.Inquiry}), and outlive the call like its
    converged results. Replayed steps are counted in the
    [sched.replayed_steps] metric. *)

(** {1 Step core}

    The greedy loop {!run} and {!run_adaptive} are built from, exposed so
    that the other greedy schedulers share its candidate scan, DC
    arithmetic, tie-break and commit instead of copying them: {!Online}
    (release-time floors and a thermal surcharge), {!Bus_sched} (commits
    at the bus-contended start) and {!Periodic} (one graph of hyperperiod
    jobs, release-relative criticalities and floors, a per-step thermal
    horizon). A caller owns its ready set and loops: {!scan} the ready
    tasks, {!pick} the winner at its weight, {!commit} it (adding newly
    ready successors to its set), until {!scheduled} covers the graph;
    then {!finish}. The step functions touch no [sched.*] counter or
    span: those belong to {!run} and {!run_adaptive} alone. *)

type ctx
(** What a schedule needs that no decision and no weight changes: the
    graph, library and PEs, the policy, static criticalities, idle powers,
    each task's mutually exclusive partners and, for [Thermal_aware], the
    hotspot's inquiry engine. *)

val prepare :
  ?hotspot:Hotspot.t ->
  ?exclusive:(Task.id -> Task.id -> bool) ->
  ?constraints:Constraints.spec ->
  ?sc:float array ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  policy:Policy.t ->
  unit ->
  ctx
(** Validates and precomputes once per scheduling call, with the
    arguments and exceptions of {!run}; the constraint spec itself is
    checked by {!init}. [sc] (one entry per task) replaces the static
    criticalities {!Dc.static_criticality} would compute. *)

type state
(** One schedule in progress: committed entries, per-PE task lists and
    energies, unscheduled-predecessor counts and the constraint
    checker. *)

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
  ?horizon:float ->
  ?surcharge:float array ->
  state ->
  ready:Ready.t ->
  candidates
(** Evaluate every admissible pair of [ready] (each must satisfy
    {!is_ready}): the earliest start (data arrival and PE availability),
    raised to [floor task] when given, and the policy cost plus
    [surcharge.(pe)] when given. A thermal cost gets a bound per pair,
    exact costs on demand: one base solve per scan, then per pair the
    O(n_blocks) {!Dc.cost_thermal_floor} and what its delta-evaluated
    inquiry needs, whose committed energies are averaged over [horizon]
    when given, else over the candidate's finish. *)

type choice = { task : Task.id; pe : int; start : float }

val pick : caller:string -> state -> candidates -> weight:float -> choice
(** The candidate of highest [Dc.weigh ~part ~cost ~weight] ([weight >=
    0]); candidates within 1e-12 of each other tie towards the lower
    (task, PE) pair. Raises {!Constraints.Infeasible} naming [caller] when
    there is no candidate.

    Exact costs are evaluated on demand, each at most once per
    [candidates]: the candidate of highest DC bound at scan time first,
    then, in scan order, every candidate whose bound reaches within
    [1e-9 (1 + |E|) + 1e-12 n] of [E], the best exact DC so far ([n]
    candidates). A candidate below that cannot change the pick, so the
    result is the one every exact cost would give.

    [pick] refines candidates rather than evaluating them outright: a
    thermal candidate's fixed point runs one damped step at a time, each
    iterate's mean temperature a tighter lower bound on its cost (see
    {!Dc.cost_thermal}), and stops as soon as that bound leaves the
    candidate short of the reach, or converges. The bound is kept in
    [candidates] and the iterate in the engine's cache, so a later pick
    (at another weight, or another memo attempt) resumes it exactly. The
    seeding candidate is chosen by the bound {!scan} stored, not the
    tightened one, so every pick of a node refines in the same order
    whether it was replayed or scanned afresh.

    Only a fixed point that runs to [max_iter] raises
    {!Tats_thermal.Steady.Runaway}: a candidate whose bound rules it out
    first, at its seed or any later iterate, stops there and no longer
    raises it; one refined until it runs away still does. No sort, no
    allocation beyond the inquiries. *)

val commit : on_ready:(Task.id -> unit) -> state -> choice -> Schedule.entry
(** Commit [choice] irrevocably and return its entry. [on_ready] is called
    for each successor this commit makes ready, in successor order. *)

val finish : state -> Schedule.t
(** The schedule of a state in which every task is committed. *)
