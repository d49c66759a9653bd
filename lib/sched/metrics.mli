(** Schedule metrics: the three columns of the paper's tables plus
    supporting detail.

    "Total Pow." is the design's average power draw while it runs (task
    energy + bus energy, divided by the makespan) — the definition under
    which the paper's thermal-aware rows draw {e less} power than the
    power-aware ones: stretching the schedule toward the deadline lowers
    the average draw. Temperatures are
    steady-state HotSpot block temperatures under each PE's average power
    (its task energy over the makespan, plus its idle floor); Max/Avg Temp
    are the maximum and mean over PEs. *)

module Library = Tats_techlib.Library
module Hotspot = Tats_thermal.Hotspot

val pe_energies : Schedule.t -> float array
(** Task energy committed to each PE instance. *)

val total_task_energy : Schedule.t -> float
val total_comm_energy : Schedule.t -> lib:Library.t -> float
(** Bus energy of all cross-PE edges. *)

val total_power : Schedule.t -> lib:Library.t -> float
(** (task energy + comm energy) / makespan — the tables' "Total Pow.". *)

val pe_average_powers : Schedule.t -> float array
(** Per PE: task energy / makespan + idle power, W. *)

val utilizations : Schedule.t -> float array
(** Per PE: busy time / makespan, in [0, 1]. *)

val utilization_spread : Schedule.t -> float
(** max - min utilization: the "workload balance" the paper credits the
    thermal ASP with improving. *)

type thermal_report = {
  pe_powers : float array;   (** W per PE, as passed to HotSpot *)
  block_temps : float array; (** °C per PE *)
  max_temp : float;
  avg_temp : float;
}

val report_of_powers :
  ?leakage:bool ->
  Hotspot.t ->
  dynamic:float array ->
  idle:float array ->
  thermal_report
(** The steady-state report for per-PE [dynamic] and [idle] powers (W),
    one of each per hotspot block: [pe_powers] is their sum. [leakage]
    (default true) couples idle power to temperature through the leakage
    fixed point ({!Hotspot.inquire_with_leakage}); when false, idle power
    enters at its nominal value. The schedule and DVS reports
    all go through here. *)

val thermal_report : ?leakage:bool -> Schedule.t -> hotspot:Hotspot.t -> thermal_report
(** {!report_of_powers} for the schedule's per-PE task energy over its
    makespan. *)

type row = { total_power : float; max_temp : float; avg_temp : float }
(** One table cell group, as printed in the paper. *)

val row : ?leakage:bool -> Schedule.t -> lib:Library.t -> hotspot:Hotspot.t -> row
(** [row_of_report s ~lib (thermal_report s ~hotspot)]. *)

val row_of_report : Schedule.t -> lib:Library.t -> thermal_report -> row
(** The row of a schedule whose thermal report is already at hand, with
    no further inquiry. *)

val pp_row : Format.formatter -> row -> unit

val power_profile :
  Schedule.t -> lib:Library.t -> time:float -> float array
(** Instantaneous per-PE power at schedule time [time]: WCPC of whatever
    runs on each PE at that moment plus its idle floor. The basis for
    transient thermal replay. *)

val transient_peak :
  Schedule.t ->
  lib:Library.t ->
  hotspot:Hotspot.t ->
  ?time_unit:float ->
  ?periods:int ->
  ?dt:float ->
  unit ->
  float array
(** Replays the schedule's power profile periodically through the
    event-driven transient engine ({!Replay.of_schedule} breakpoints, the
    propagator fast path) and returns the per-PE peak transient
    temperature over the last period (after warm-up). [time_unit] maps one
    schedule time unit to seconds (default 1e-3), [periods] defaults to
    50, [dt] to one hundredth of the period. *)

val makespan_lower_bound :
  Tats_taskgraph.Graph.t -> lib:Library.t -> n_pes:int -> float
(** A schedule-independent lower bound on any makespan over [n_pes]
    instances drawn from [lib]: the max of the critical path with
    best-case (fastest-kind) WCETs and the total best-case work divided by
    [n_pes]. Every valid schedule's makespan is at least this (property
    tested). *)

val idle_energy : Schedule.t -> float
(** Energy the idle floors burn over the makespan on top of task energy:
    sum over PEs of idle_power x (makespan - busy time). *)

val power_gating_saving : Schedule.t -> break_even:float -> float
(** Idle energy recoverable by gating: the idle-floor energy of every
    per-PE gap (including the leading gap and the tail to the makespan)
    longer than [break_even] time units. Always <= {!idle_energy}. *)
