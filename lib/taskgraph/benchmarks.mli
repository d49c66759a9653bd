(** The paper's benchmark suite.

    Table 1 characterizes each benchmark as name/tasks/edges/deadline:
    Bm1/19/19/790, Bm2/35/40/1500, Bm3/39/43/1650, Bm4/51/60/2000. The
    graphs themselves are unpublished, so we regenerate seeded random DAGs
    with exactly those counts (see DESIGN.md, substitution 1). *)

type descriptor = {
  bench_name : string;
  tasks : int;
  edges : int;
  deadline : float;
}

val descriptors : descriptor array
(** The four rows of Table 1, in order. *)

val n_task_types : int
(** Number of distinct task types used across the suite (shared with the
    default technology library). *)

val load : int -> Graph.t
(** [load i] with [i] in [0..3] builds Bm(i+1) deterministically. *)

val all : unit -> Graph.t array
(** All four benchmarks, in order. *)

val index_of_name : string -> (int, string) result
(** [index_of_name "Bm2"] is [Ok 1], the {!load} index; an unknown name
    is an [Error] naming it and the valid range. *)
