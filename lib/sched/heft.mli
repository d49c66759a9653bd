(** HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al., 2002) — as
    an independent comparator for the paper's ASP.

    Differences from {!List_sched}: tasks are ordered once by upward rank
    (no per-step re-selection), each task goes to the PE minimizing its
    earliest {e finish} time, and the insertion policy may place a task in
    an idle gap between two already-scheduled tasks — something the ASP's
    append-only timeline never does. *)

module Graph = Tats_taskgraph.Graph
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library

val upward_rank : Library.t -> Graph.t -> float array
(** Mean-WCET node weights, mean cross/same-PE communication edge weights —
    the same quantity {!Dc.static_criticality} computes; exposed under its
    HEFT name for clarity. *)

val run :
  ?constraints:Constraints.spec ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  unit ->
  Schedule.t
(** Deterministic. The schedule covers every task and is valid by
    {!Schedule.validate}; it may or may not meet the deadline.
    [constraints] behaves as in {!List_sched.run}: pins and isolation
    enforced per placement, {!Constraints.Invalid} /
    {!Constraints.Infeasible} on contradiction / dead-end. An empty [pes]
    raises [Invalid_argument]. *)
