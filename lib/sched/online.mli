(** Online reactive scheduling: sporadic task arrivals, irrevocable
    decisions, and a clairvoyant competitive baseline.

    The offline list scheduler ({!List_sched}) sees the whole DAG at time
    zero. This module models the streaming setting of the online
    literature: tasks are {e released} over time, the scheduler learns of
    a task only at its release, and every (task, PE, start) commitment is
    irrevocable. Decisions are made at {e events} — release times, plus
    cooldown wake-ups injected by the reactive policy — and at each event
    the scheduler re-plans all currently plannable work through the
    offline scheduler's own step core ({!List_sched.scan},
    {!List_sched.pick}, {!List_sched.commit}): release times enter as
    per-task start floors, the reactive policy's migration pressure as a
    per-PE cost surcharge.

    Two policy families are provided:

    - {!Mirror}: the offline DC policies applied online, restricted to
      released tasks. With the degenerate all-zero arrival stream the
      event loop collapses to a single event at [t = 0] and reproduces
      {!List_sched.run} bit-identically (the differential test battery's
      anchor property).
    - {!Reactive}: a temperature-reactive adaptation that tracks the live
      {!Tats_thermal.Transient} state of the platform between events,
      penalizes candidate PEs whose current temperature exceeds a trigger
      (migration pressure towards cooler PEs), and defers work to a
      cooldown wake-up when every PE is hot (throttling as a stall —
      WCETs are never stretched, so {!Schedule.validate} still holds).

    Every run is scored against the {e clairvoyant} baseline — the
    offline list scheduler handed the full arrival trace as start-time
    floors — by re-simulating both schedules bit-exactly through
    {!Replay.of_schedule} and reporting empirical competitive ratios on
    makespan and peak temperature.

    Activity is visible as [online.*] counters in
    {!Tats_util.Metricsreg} and [online.run] / [online.event] /
    [online.score] spans in {!Tats_util.Trace}. *)

module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Hotspot = Tats_thermal.Hotspot

exception Policy_needs_hotspot
(** Raised when the chosen policy requires temperature state (a thermal
    mirror, or any reactive policy) and no hotspot facade was supplied. *)

(** {1 Arrival streams} *)

type arrivals = float array
(** [arrivals.(t)] is the release time of task [t]: the instant the
    scheduler first learns the task exists. All entries must be finite
    and non-negative. *)

val zero : Graph.t -> arrivals
(** Everything releases at [t = 0] — the degenerate stream under which
    the online scheduler must reproduce the offline one bit-identically. *)

val sporadic : ?mean_gap:float -> seed:int -> Graph.t -> arrivals
(** A seeded sporadic stream: in topological order, each task releases a
    random gap (uniform on [[0, 2 mean_gap)), drawn from
    [Rng.derive seed task]) after the latest release among its
    predecessors — so releases are random but never precede the data
    producers' releases. Deterministic in [(seed, graph)] and independent
    of evaluation order. [mean_gap] defaults to [25.0] schedule time
    units; it must be positive. *)

val of_trace : Schedule.t -> arrivals
(** Trace-driven arrivals: each task releases at its start time in an
    existing schedule — replaying a previously observed execution trace
    (e.g. the offline baseline on Bm1–Bm3) as an arrival stream. *)

val validate_arrivals : Graph.t -> arrivals -> unit
(** Raises [Invalid_argument] unless the array covers every task with
    finite, non-negative release times. *)

(** {1 Policies} *)

type reactive = {
  base : Policy.t;  (** DC cost family used for candidate ranking. *)
  trigger : float;  (** block temperature (°C) above which a PE is hot *)
  penalty : float;
      (** extra normalized DC cost per °C above [trigger] on the
          candidate PE — steers work towards cooler PEs (migration). *)
  cooldown : float;
      (** stall, in schedule time units, applied when {e every} PE is hot:
          the picked task is deferred to a wake-up event [cooldown] later
          instead of being committed (throttling without stretching
          WCETs). *)
  max_defers : int;
      (** per-task cap on cooldown deferrals; once exhausted the task is
          committed even on a hot PE, guaranteeing termination. *)
}

type policy =
  | Mirror of Policy.t
      (** The offline DC policy applied to released tasks only. *)
  | Reactive of reactive
      (** Temperature-reactive variant driven by the live transient
          state. *)

val default_reactive : reactive
(** [{ base = Thermal_aware; trigger = 75.0; penalty = 4.0;
      cooldown = 40.0; max_defers = 8 }]. *)

val policy_name : policy -> string
(** ["baseline"], ["h1"], ["h2"], ["h3"], ["thermal"] for mirrors (as
    {!Policy.name}); ["reactive"] for the reactive policy. *)

val policy_of_name : string -> policy option
(** Inverse of {!policy_name}; ["reactive"] maps to
    [Reactive default_reactive]. *)

val pp_policy : Format.formatter -> policy -> unit

val base_policy : policy -> Policy.t
(** The DC cost family underneath: the mirrored policy itself, or a
    reactive policy's [base]. The clairvoyant baseline runs this. *)

(** {1 Running} *)

type stats = {
  events : int;  (** decision points visited (releases + wake-ups) *)
  decisions : int;  (** committed (task, PE) choices, = number of tasks *)
  candidates : int;  (** (task, PE) pairs evaluated across all events *)
  deferrals : int;  (** reactive cooldown stalls taken *)
  peak_observed : float;
      (** hottest block temperature (°C) sampled from the live transient
          state at any decision point; [nan] when the policy never
          consults the transient engine (mirrors). *)
}

type run = {
  schedule : Schedule.t;
  arrivals : arrivals;
  policy : policy;
  stats : stats;
}

val run :
  ?weights:Policy.weights ->
  ?hotspot:Hotspot.t ->
  ?constraints:Constraints.spec ->
  ?time_unit:float ->
  arrivals:arrivals ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  policy:policy ->
  unit ->
  run
(** Run the online event loop over [arrivals]. [weights] defaults to
    {!Policy.default_weights} on the graph deadline, exactly as the
    offline scheduler. [hotspot] is required for [Mirror Thermal_aware]
    and for every [Reactive] policy (raises {!Policy_needs_hotspot}
    otherwise) and must have one block per PE. [time_unit] (default
    [1e-3] — the {!Replay.of_schedule} convention, seconds per schedule
    time unit) scales the live transient integration between events; it
    must be positive and finite, and a [Reactive] policy's trigger finite,
    its penalty and cooldown finite and non-negative and its [max_defers]
    non-negative (raises [Invalid_argument] otherwise).

    The schedule always satisfies [start >= release] for every task in
    addition to the {!Schedule.validate} invariants.

    [constraints] restricts placements (pins and isolation, see
    {!Constraints}) exactly as in {!List_sched.run}; a dead end raises
    {!Constraints.Infeasible} naming [Online.plan]. *)

val clairvoyant :
  ?weights:Policy.weights ->
  ?hotspot:Hotspot.t ->
  ?constraints:Constraints.spec ->
  arrivals:arrivals ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  policy:Policy.t ->
  unit ->
  Schedule.t
(** The competitive baseline: the offline list scheduler given the full
    arrival trace up front — all tasks visible at [t = 0], but no task
    may start before its release. With all-zero arrivals this {e is}
    {!List_sched.run}, bit for bit. *)

val released_before_start : run -> Task.id list
(** Tasks whose committed start precedes their release — always empty
    for schedules produced by {!run}; exposed for the property suite. *)

(** {1 Competitive scoring} *)

type score = {
  online_makespan : float;
  clairvoyant_makespan : float;
  makespan_ratio : float;  (** >= 1 by construction, see below *)
  online_peak : float;  (** peak block temperature (°C), replay-scored *)
  clairvoyant_peak : float;
  peak_ratio : float;  (** >= 1 by construction *)
  mimicked_makespan : bool;
  mimicked_peak : bool;
      (** true when the clairvoyant adversary adopted the online
          schedule for that metric (see below). *)
}

val score :
  ?periods:int ->
  ?dt:float ->
  ?time_unit:float ->
  lib:Library.t ->
  hotspot:Hotspot.t ->
  clairvoyant:Schedule.t ->
  run ->
  score
(** Score [run] against the [clairvoyant] schedule. Both schedules are
    re-simulated bit-exactly through {!Replay.of_schedule} (with
    [time_unit], default [1e-3]) and peak-scored with {!Replay.peaks}
    ([periods] default [50]; [dt] defaults per profile as in
    {!Replay.peaks}).

    The greedy DC heuristic is not optimal, so on some streams the
    online schedule can beat the clairvoyant {e heuristic} run. The
    adversary, however, sees everything the online player does and may
    simply mimic it — so the baseline for each metric is the better of
    the clairvoyant schedule and the online schedule itself, making both
    ratios [>= 1] by construction. [mimicked_*] records when that clause
    fired. Degenerate zero-over-zero ratios (empty graphs) report [1.]. *)

val pp_score : Format.formatter -> score -> unit
