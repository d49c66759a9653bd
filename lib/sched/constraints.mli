(** Safety-criticality placement constraints: pinned tasks and isolation
    groups, following the avionics-MPSoC setting of Benedikt et al.
    (PAPERS.md).

    A {!spec} is declarative and immutable:

    - {e Pins} restrict where a task may run — a concrete PE slot
      ([To_pe]) or any PE of a given kind ([To_kind]).
    - {e Isolation} assigns tasks to criticality classes; two tasks of
      {e different} classes may never share a PE. Unclassed tasks are
      unrestricted.

    Statically contradictory specs (out-of-range pins, a task pinned
    twice, more classes than PEs, different classes pinned to one PE, PE
    pins that starve the remaining classes) raise {!Invalid} with a
    descriptive message when the checker is built, before any scheduling
    work. If a scheduler's candidate scan comes up empty {e at runtime}
    under a valid spec (possible with kind-affinity pins), it raises
    {!Infeasible}.

    The stateful {!checker} maintains a claim invariant — unclaimed PEs
    never drop below the number of classes that own no PE yet — so the
    greedy schedulers cannot paint themselves into a corner by letting an
    already-placed class spread over the PEs a later class needs. *)

module Task = Tats_taskgraph.Task
module Pe = Tats_techlib.Pe

type pin =
  | To_pe of int  (** must run on this PE slot *)
  | To_kind of int  (** must run on a PE of this kind *)

type spec = {
  pins : (Task.id * pin) list;
  isolation : (Task.id * int) list;  (** task -> criticality class *)
}

val empty : spec

exception Invalid of string
(** The spec is statically contradictory (raised by {!make}). *)

exception Infeasible of string
(** A scheduler's candidate scan found no admissible (task, PE) pair. *)

(** {1 Stateful checking (scheduler internals)} *)

type checker

val make : spec -> n_tasks:int -> pes:Pe.inst array -> checker
(** Validate [spec] against the platform and build a fresh checker.
    Raises {!Invalid} on contradiction. PE pins of classed tasks
    pre-claim their PE for that class. *)

val admissible : checker -> task:int -> pe:int -> pes:Pe.inst array -> bool
(** May [task] be placed on [pe] given the commitments so far? *)

val commit : checker -> task:int -> pe:int -> bool
(** Record an irrevocable placement (claims the PE for the task's class
    on first use). Callers must only commit admissible pairs. Returns
    whether it claimed a PE: only such a commit can change {!admissible}
    on a PE other than [pe] (through the claim counts). *)

val infeasible_msg : string -> string
(** Message for the {!Infeasible} raise, prefixed with the scheduler
    name. *)

(** {1 Post-hoc validation} *)

val violations : spec -> pes:Pe.inst array -> assignment:int array -> string list
(** Check a finished task->PE assignment against the spec; empty means
    every pin is honored and no PE is shared across classes. Used by the
    property suite and campaign artifacts. *)

val pp_pin : Format.formatter -> pin -> unit
val pp : Format.formatter -> spec -> unit
