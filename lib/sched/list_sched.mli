(** The allocation-and-scheduling procedure (ASP) of the paper.

    A list scheduler: repeatedly pick, among all (ready task, PE) pairs, the
    one with the highest dynamic criticality, and commit it. The
    thermal-aware policy issues a HotSpot inquiry per candidate pair,
    passing each PE's cumulative power plus the power the candidate task
    would add on the candidate PE, and folds the returned average
    temperature into DC — exactly the paper's Section 2.2 loop. *)

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
    deadline. [hotspot] must describe one block per entry of [pes] (same
    order); it is required for [Thermal_aware] and ignored otherwise.
    [exclusive] enables conditional-task-graph time-sharing: mutually
    exclusive tasks may overlap on one PE.

    [constraints] restricts placements to pinned PEs/kinds and keeps
    isolation classes on disjoint PEs (see {!Constraints}); a
    contradictory spec raises {!Constraints.Invalid} before any work, a
    spec with no admissible candidate at some step raises
    {!Constraints.Infeasible}. Omitted (or empty), the scheduler is
    bit-identical to the historical unconstrained path.

    The result always covers every task; it may miss the deadline — callers
    (e.g. co-synthesis) decide what to do then. Deterministic. *)

val run_adaptive :
  ?base_weights:Policy.weights ->
  ?max_multiplier:float ->
  ?search_steps:int ->
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
    ([search_steps] runs, default 16) for the largest cost weight in
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
    ({!Dc.part}) and the cost; an attempt re-picks the winner of a step
    some earlier attempt reached with {!Dc.weigh} at its own weight, and
    computes start times and issues inquiries only once its decisions
    leave every earlier attempt's path. Results are bit-identical to
    bisecting over fresh {!run} calls. Memory: at most one node per
    scheduled step of each attempt ([(search_steps + 2) x n_tasks] nodes),
    each holding four words per candidate (at most ready tasks x PEs); the
    memo is local to the call and dropped when it returns. Replayed steps
    are counted in the [sched.replayed_steps] metric. *)
