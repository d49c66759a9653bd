(** Schedules: the output of the allocation-and-scheduling procedure.

    A schedule fixes, for every task, the PE instance it runs on and its
    start/finish times. Validity (precedence + PE exclusivity + complete
    coverage) is checked structurally, independent of how the schedule was
    produced — the test suite leans on this. *)

module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library

type entry = {
  task : Task.id;
  pe : int; (** index into the architecture's instance array *)
  start : float;
  finish : float;
  energy : float; (** task energy on its PE (WCET x WCPC) *)
}

type t = {
  graph : Graph.t;
  pes : Pe.inst array;
  entries : entry array; (** indexed by task id *)
  makespan : float;
}

val make : graph:Graph.t -> pes:Pe.inst array -> entries:entry array -> t
(** Computes the makespan. Raises [Invalid_argument] when [entries] does not
    cover the graph's tasks exactly or references an unknown PE. *)

val entry : t -> Task.id -> entry
val n_pes : t -> int

val tasks_on_pe : t -> int -> entry list
(** Entries on one PE, by increasing start time. *)

val meets_deadline : t -> bool

type violation =
  | Precedence of Graph.edge * string
  | Pe_overlap of int * Task.id * Task.id
  | Negative_time of Task.id
  | Bad_duration of Task.id

val validate : lib:Library.t -> t -> violation list
(** Structural check: every edge's consumer starts no earlier than its
    producer's finish plus the communication delay implied by [lib]; no two
    entries overlap on a PE; no negative times; each entry's duration
    equals the library WCET. Every check is written so that a NaN time
    fails it: a NaN start or finish reports [Negative_time]. Empty list =
    valid. *)

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> t -> unit
(** Gantt-style text rendering, one line per PE. *)
