(** Monte-Carlo execution-time analysis of a schedule.

    Schedules are built from worst-case execution times; at run time tasks
    usually finish earlier. This replays a schedule's mapping and per-PE
    order under sampled actual execution times (a fraction of WCET) and
    reports the distributions that matter: makespan spread, deadline-miss
    probability (zero by construction when actuals never exceed WCET, so
    the sampler also supports overruns), and the per-PE energy spread that
    feeds the thermal model. *)

module Graph = Tats_taskgraph.Graph
module Library = Tats_techlib.Library
module Hotspot = Tats_thermal.Hotspot
module Pool = Tats_util.Pool

type sampler = {
  min_fraction : float; (** lower bound of actual/WCET, > 0 *)
  max_fraction : float; (** upper bound; > 1 models overruns *)
}

val default_sampler : sampler
(** Uniform in [0.6, 1.0] — the usual "actuals rarely hit worst case". *)

type stats = {
  runs : int;
  makespan_mean : float;
  makespan_p95 : float;
  makespan_max : float;
  deadline_miss_rate : float; (** in [0, 1] *)
  peak_temp_mean : float;     (** °C, steady state per sampled run *)
  peak_temp_max : float;
}

val analyze :
  ?sampler:sampler ->
  ?runs:int ->
  ?pool:Pool.t ->
  seed:int ->
  lib:Library.t ->
  hotspot:Hotspot.t ->
  Schedule.t ->
  stats
(** [runs] defaults to 200. Each run keeps the schedule's task-to-PE
    mapping and per-PE order, scales every task's duration by an
    independent uniform draw, recomputes start/finish by the list
    semantics (data readiness + PE order), and evaluates the steady-state
    peak temperature under the run's average powers.

    Replications are evaluated on [pool] (default: {!Pool.default}).
    Deterministic in [seed] {e at any pool size}: every uniform draw is
    made sequentially up front, in the order the sequential implementation
    consumed them, and each replication's thermal query is stateless
    ({!Hotspot.inquire_with_leakage}), so the returned statistics are
    bit-identical whether evaluated on 1 domain or 32. *)
