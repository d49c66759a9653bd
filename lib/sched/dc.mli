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
  engine:Tats_thermal.Inquiry.t ->
  base:Tats_thermal.Inquiry.base ->
  idle:float array ->
  finish:float ->
  pe:int ->
  task_power:float ->
  float
(** The thermal-aware candidate cost, end to end: issue the paper's HotSpot
    inquiry through the {!Tats_thermal.Inquiry} engine — the per-step
    [base] (cumulated PE energies) averaged over the candidate's finish
    horizon, plus [task_power] on the candidate [pe], delta-evaluated —
    and fold the average temperature through {!cost_temperature}. *)

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
