(** Schedule → power-trace adapter for the event-driven transient engine.

    A schedule is a set of per-PE busy intervals, so its power draw is
    piecewise constant with breakpoints exactly at task starts and
    finishes. This module turns schedules (and any other interval shape)
    into {!Tats_thermal.Transient.profile} values with {e exact} breakpoints —
    no sampling grid — and replays them for peak transient temperatures. *)

module Library = Tats_techlib.Library
module Hotspot = Tats_thermal.Hotspot
module Transient = Tats_thermal.Transient

type interval = { pe : int; start : float; finish : float; power : float }
(** One busy interval in schedule time units: [pe] draws [power] extra
    watts (on top of its idle floor) over [[start, finish)]. *)

val power_at : idle:float array -> interval list -> float -> float array
(** [power_at ~idle intervals t] is the per-PE power in force at time [t]:
    [idle.(pe)] plus the power of the interval covering [(pe, t)] (the
    covering test is [start <= t < finish]). Evaluated at a segment start,
    it is the segment's power when no interval endpoint lies inside the
    segment. *)

val profile_of_intervals :
  duration:float ->
  time_unit:float ->
  idle:float array ->
  interval list ->
  Transient.profile
(** Build one period of a piecewise-constant profile: [duration] in
    schedule time units, scaled by [time_unit] seconds per unit; each PE
    contributes its idle floor everywhere plus the power of whichever
    intervals cover the segment. Breakpoints are the interval endpoints in
    [[0, duration)]. Raises [Invalid_argument] on a non-positive duration
    or time unit, or an interval referencing an unknown PE. *)

val of_schedule :
  ?time_unit:float -> lib:Library.t -> Schedule.t -> Transient.profile
(** The schedule's power trace over one makespan: each entry contributes
    its task's WCPC on its PE while it runs. [time_unit] (default 1e-3)
    maps one schedule time unit to seconds. Segment powers agree exactly
    with {!Metrics.power_profile} sampled inside the segment. *)

val peaks :
  ?periods:int ->
  ?dt:float ->
  ?exact:bool ->
  hotspot:Hotspot.t ->
  Transient.profile ->
  float array
(** Replay [periods] (default 50) repetitions of the profile from ambient
    through the engine and return the per-block peak temperature over the
    last period (after warm-up). [dt] defaults to one hundredth of the
    profile duration; [exact] (default false) selects the bit-exact
    factored-solve path over the propagator fast path. The hotspot must
    have one block per profile input. *)
