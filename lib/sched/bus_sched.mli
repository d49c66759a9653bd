(** Shared-bus communication scheduling — the Xie–Wolf co-synthesis detail
    the base ASP abstracts away.

    {!List_sched} charges a fixed per-byte delay for cross-PE edges and
    assumes infinite bus bandwidth. Here the bus is a real resource: every
    cross-PE edge becomes a transfer that occupies the (single) bus
    exclusively, so concurrent communication serializes and contention
    lengthens schedules. Selection is {!List_sched.scan} and
    {!List_sched.pick}, i.e. the contention-free estimate (the classic
    optimistic list-scheduling approximation); commitment books the
    chosen task's input transfers on the bus, first-come in predecessor
    order, and starts the task once they have arrived and its PE is
    free. *)

module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library

type transfer = {
  edge : Graph.edge;
  bus_start : float;
  bus_finish : float;
}

type result = { schedule : Schedule.t; transfers : transfer list }

val run :
  ?weights:Policy.weights ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  policy:Policy.t ->
  unit ->
  result
(** Like {!List_sched.run} with bus contention. [Thermal_aware] is not
    supported here (raises [Invalid_argument]); the substrate exists to
    study the communication model, not the thermal policy. The library's
    interconnect must be a [Comm.Shared_bus]: a mesh raises
    [Invalid_argument], since bus transfers would ignore its hop
    delays. *)

val validate : result -> lib:Library.t -> string list
(** Structural check: transfers do not overlap on the bus, every cross-PE
    edge has exactly one transfer starting no earlier than its producer's
    finish, every consumer starts no earlier than its transfers complete,
    and no two tasks overlap on a PE. Empty list = valid. *)

val bus_utilization : result -> float
(** Busy fraction of the bus over the schedule makespan. *)
