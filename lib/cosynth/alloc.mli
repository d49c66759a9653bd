(** PE allocation (selection) for co-synthesis.

    Greedy incremental search in the style of Xie–Wolf: start from the
    single kind that best serves the graph, and while the baseline ASP
    misses the deadline, add the catalogue kind whose extra instance
    shrinks the makespan the most (ties broken by lower cost). The
    architecture is then fixed and handed to the policy ASP. *)

module Graph = Tats_taskgraph.Graph
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library

type t = {
  insts : Pe.inst array;
  total_cost : float;
  feasible : bool; (** baseline ASP meets the deadline on this architecture *)
  asp_runs : int;
      (** how many trial schedules the search needed, counting those of
          the [~from] result it continued *)
  makespan : float;  (** the trial schedule's makespan on [insts] *)
}

val run :
  ?max_pes:int ->
  ?min_pes:int ->
  ?policy:Tats_sched.Policy.t ->
  ?weights:Tats_sched.Policy.weights ->
  ?from:t ->
  graph:Graph.t ->
  lib:Library.t ->
  unit ->
  t
(** [max_pes] defaults to 8, [min_pes] to 1 (the outer co-synthesis loop
    raises it when the policy ASP misses the deadline on the allocated
    architecture). [policy] (default [Baseline]) guides the trial
    schedules, so a power-aware DC also steers PE {e selection} — the
    paper's "the selection of PEs and the assignment of tasks are both
    guided by ASP". [Thermal_aware] is rejected (it would need a floorplan
    per candidate architecture); the flow allocates those runs with
    [Baseline] and iterates. The result has between [min_pes] and
    [max_pes] instances; [feasible] is false when even [max_pes] instances
    miss the deadline.

    [from], a result of [run] with the same graph, library, policy and
    weights, continues that search instead of repeating it: the result
    equals a run from scratch, [asp_runs] included, but only the trials
    past [from]'s allocation are scheduled. [from] must have fewer than
    [min_pes] instances; [Invalid_argument] otherwise. *)

val instances_of_kinds : Library.t -> int list -> Pe.inst array
(** Build an instance array from kind ids (helper for tests and the CLI). *)
