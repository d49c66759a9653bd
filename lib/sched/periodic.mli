(** Periodic, multi-application scheduling over a hyperperiod.

    Embedded systems run their task graphs periodically (the paper's
    steady-state thermal analysis implicitly assumes it). This module
    schedules several applications, each with its own period, by expanding
    every application into its job instances over the hyperperiod (the LCM
    of the periods): instance [k] of an application releases at
    [k * period] and must finish by [k * period + deadline]. Jobs inherit
    the intra-instance precedence edges; instances are independent.

    The scheduler is the same DC-driven list scheduler as {!List_sched}:
    the hyperperiod's jobs form one graph driven through its step core,
    with each job's static criticality taken relative to its release
    ([List_sched.prepare ~sc]), its start floored at the release, and the
    thermal inquiry averaging committed energy over the current frontier
    (the latest committed finish, at least 1) instead of each candidate's
    finish ([List_sched.scan ~floor ~horizon]). *)

module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Hotspot = Tats_thermal.Hotspot

type app = { graph : Graph.t; period : float }
(** [period] must be a positive integer (in schedule time units) and at
    least the graph's deadline — otherwise instances of the same app could
    legitimately overlap, which this expansion does not model. *)

val make_app : graph:Graph.t -> period:float -> app

val hyperperiod : app list -> float
(** LCM of the (integer) periods. Raises [Invalid_argument] on an empty
    list. *)

type job = { app : int; instance : int; task : Task.id }

type entry = { job : job; pe : int; start : float; finish : float; energy : float }

type t = {
  apps : app array;
  pes : Pe.inst array;
  hyper : float;
  entries : entry array; (** all jobs, in scheduling order *)
}

val schedule :
  ?policy:Policy.t ->
  ?weights:Policy.weights ->
  ?hotspot:Hotspot.t ->
  apps:app list ->
  lib:Library.t ->
  pes:Pe.inst array ->
  unit ->
  t
(** Expands and schedules every job. [policy] defaults to [Baseline];
    [Thermal_aware] requires [hotspot] (as in {!List_sched}). *)

type violation =
  | Release of job        (** job starts before its release *)
  | Job_deadline of job   (** job finishes after its absolute deadline *)
  | Precedence of job * job
  | Pe_overlap of int * job * job

val validate : t -> lib:Library.t -> violation list

val meets_all_deadlines : t -> bool

val total_energy : t -> float
val average_power : t -> float
(** Total energy (tasks only) over the hyperperiod — the steady-state
    dynamic power the thermal model consumes. *)

val pe_average_powers : t -> float array
(** Per-PE dynamic average over the hyperperiod plus idle floor. *)

val thermal_report : ?leakage:bool -> t -> hotspot:Hotspot.t -> Metrics.thermal_report
(** {!Metrics.report_of_powers} for the per-PE task energy over the
    hyperperiod. *)

val utilization : t -> float
(** Fraction of total PE capacity (n_pes x hyperperiod) spent computing. *)

val schedule_adaptive :
  ?base_weights:Policy.weights ->
  ?max_multiplier:float ->
  ?hotspot:Hotspot.t ->
  apps:app list ->
  lib:Library.t ->
  pes:Pe.inst array ->
  policy:Policy.t ->
  unit ->
  t * Policy.weights
(** The periodic counterpart of {!List_sched.run_adaptive}: bisects for the
    strongest cost weight under which every job still meets its absolute
    deadline. The base weight defaults to
    [Policy.default_weights ~deadline:(smallest graph deadline)]. *)
