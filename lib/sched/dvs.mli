(** Dynamic voltage/frequency scaling on top of a finished schedule — the
    classic follow-up to thermal-aware scheduling (and the natural extension
    of the paper): once the ASP has fixed the mapping and the order, any
    slack before the deadline can be converted into lower voltage, which
    reduces energy quadratically while stretching execution linearly.

    The result is a {!plan}: the original schedule plus a per-task V/f level
    and stretched finish times. Starts are kept, so the plan is safe by
    construction as long as each task still finishes before every
    constraint that consumed its output. *)

module Graph = Tats_taskgraph.Graph
module Library = Tats_techlib.Library
module Hotspot = Tats_thermal.Hotspot

type level = {
  name : string;
  scale : float;        (** frequency factor in (0, 1]; WCET divides by it *)
  power_factor : float; (** dynamic-power factor in (0, 1]; ~ scale^3 *)
}

val default_levels : level list
(** Four levels: 1.00/0.85/0.70/0.55 frequency, cubic power factors —
    a typical embedded DVFS ladder. Always sorted fastest first. *)

val make_level : name:string -> scale:float -> power_factor:float -> level

type plan = {
  base : Schedule.t;
  levels : level array; (** per task id *)
  finish : float array; (** stretched finish per task id *)
  makespan : float;
}

val reclaim : ?levels:level list -> lib:Library.t -> Schedule.t -> plan
(** Single reverse pass: each task may stretch until the earliest of (a) the
    deadline, (b) the start of any data successor minus the communication
    delay, (c) the start of the next task on its PE; the slowest level that
    fits is chosen. Start times are unchanged. *)

val task_energy : plan -> Tats_taskgraph.Task.id -> float
(** Energy of one task under its chosen level:
    base energy x power_factor / scale (quadratic saving for cubic
    power factors). *)

val total_energy : plan -> float
val energy_saving_ratio : plan -> float
(** 1 - planned/original task energy, in [0, 1). *)

val pe_average_powers : plan -> float array
(** Stretched per-PE dynamic power + idle floor, for thermal evaluation. *)

val thermal_report : ?leakage:bool -> plan -> hotspot:Hotspot.t -> Metrics.thermal_report
(** {!Metrics.report_of_powers} for the stretched per-task energies over
    the plan's makespan. *)

type violation =
  | Deadline_exceeded of float
  | Precedence_broken of Graph.edge
  | Pe_order_broken of int * Tats_taskgraph.Task.id * Tats_taskgraph.Task.id

val validate : plan -> lib:Library.t -> violation list
(** Structural check of the stretched times (analogous to
    {!Schedule.validate}). [Deadline_exceeded] is only reported when the
    plan finishes later than both the deadline and the base schedule — an
    already-late base schedule is inherited, not caused. Empty list = safe
    plan. *)
