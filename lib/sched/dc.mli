(** Dynamic criticality: the selection score of the list scheduler.

    All cost terms are normalized into [~0, ~1] before being scaled by
    [Policy.weights.cost_weight], so that one weight is meaningful across
    power (W), energy (J) and temperature (°C) costs. *)

module Task = Tats_taskgraph.Task
module Graph = Tats_taskgraph.Graph
module Library = Tats_techlib.Library

val static_criticality : Library.t -> Graph.t -> float array
(** SC per task: longest path to a sink, with node weight = the task's
    average WCET over all kinds and edge weight = the average of the free
    (same-PE) and bus (cross-PE) communication delays. *)

(** Normalized cost terms (dimensionless, roughly in [0, 1]): *)

val cost_task_power : Library.t -> task_type:int -> kind:int -> float
(** Heuristic 1: WCPC / library max WCPC. *)

val cost_pe_average_power :
  Library.t -> pe_energy:float -> task_energy:float -> finish:float -> float
(** Heuristic 2: the PE's cumulative average power after accepting the task,
    normalized by the library max WCPC. *)

val cost_task_energy : Library.t -> task_type:int -> kind:int -> float
(** Heuristic 3: task energy / library max energy. *)

val cost_temperature : ambient:float -> avg_temp:float -> float
(** Thermal: (HotSpot average temperature - ambient) / 100 °C. *)

val cost_thermal :
  stop:(float -> bool) ->
  engine:Tats_thermal.Inquiry.t ->
  step:Tats_thermal.Inquiry.step ->
  tally:Tats_thermal.Inquiry.tally ->
  slots:Tats_thermal.Inquiry.slot array ->
  int ->
  finish:float ->
  pe:int ->
  task_power:float ->
  float
(** The thermal-aware candidate cost, end to end: the paper's HotSpot
    inquiry, answered by {!Tats_thermal.Inquiry.ask} from the step's
    table — the step's base (cumulated PE energies) averaged over the
    candidate's finish horizon, plus [task_power] on the candidate [pe],
    delta-evaluated — with the average temperature folded through
    {!cost_temperature}. [slots.(i)] is the candidate's slot cache and
    [tally] takes the counter bumps, as for [ask].

    [stop] sees the same fold of every unconverged iterate of the
    inquiry's fixed point, in order: a lower bound on the cost that never
    falls from one iterate to the next, starting from the seed's, which
    {!cost_thermal_floor} exceeds by up to its leakage lift. Once [stop]
    holds, the inquiry stops there and the result is that bound, not the
    cost; the caller tells the two apart by its own last answer.
    [~stop:(fun _ -> false)] asks for the cost. *)

val thermal_horizon : finish:float -> float
(** The horizon a thermal inquiry averages the step's energies over:
    [finish], clamped at 1e-9. *)

val cost_thermal_floor :
  engine:Tats_thermal.Inquiry.t ->
  base:Tats_thermal.Inquiry.base ->
  lift:float ->
  finish:float ->
  pe:int ->
  task_power:float ->
  float
(** A lower bound on {!cost_thermal} with the same arguments, in O(1)
    with no fixed point: a floor under the inquiry's converged mean
    ({!Tats_thermal.Inquiry.seed_floor}: its linear seed's mean plus
    [lift]) folded through {!cost_temperature}. [lift] is
    {!Tats_thermal.Inquiry.leakage_lift} of the step's base and idle
    powers at a horizon ({!thermal_horizon}) at least this candidate's —
    [List_sched.scan] takes the largest of the step's thermal candidates
    — or 0. So [weigh ~part ~cost:floor ~weight] bounds a candidate's DC
    from above for any [weight >= 0]. {!cost_thermal}'s [stop] bounds
    may start below this floor: they climb towards the cost from the
    seed, so a caller that keeps both keeps their maximum. *)

val value :
  sc:float -> wcet:float -> start:float -> cost:float -> weight:float -> float
(** [DC = sc - wcet - start - weight * cost]. [start] is
    [max(PE available, task ready)]. Equal, bit for bit, to
    [weigh ~part:(part ~sc ~wcet ~start) ~cost ~weight]. *)

val part : sc:float -> wcet:float -> start:float -> float
(** The weight-free part of {!value}: [sc - wcet - start]. *)

val weigh : part:float -> cost:float -> weight:float -> float
(** [part - weight * cost]: the weighting step of {!value}, for callers
    that evaluate one candidate at several weights. *)
