(** Directed acyclic task graphs with real-time deadlines.

    Edges carry the amount of data communicated from producer to consumer;
    the technology library's communication model turns it into a delay when
    the two endpoints are mapped to different processing elements. *)

type edge = { src : Task.id; dst : Task.id; data : float }
(** [data] is in abstract "bytes" and must be non-negative. *)

type t

(** {1 Construction} *)

type builder

val builder : name:string -> deadline:float -> builder
(** [deadline] must be positive and finite; otherwise raises
    [Invalid_argument]. *)

val add_task : builder -> ?name:string -> task_type:int -> unit -> Task.id
(** Returns the identifier of the freshly added task. *)

val add_edge : builder -> ?data:float -> Task.id -> Task.id -> unit
(** [add_edge b src dst] adds a dependency. Raises [Invalid_argument] on an
    unknown endpoint, a self-loop, a duplicate edge, or [data] that is
    negative or not finite. [data] defaults to 0. *)

val build : builder -> t
(** Freezes the builder. Raises [Invalid_argument] if the graph is cyclic. *)

(** {1 Accessors} *)

val name : t -> string
val deadline : t -> float
val n_tasks : t -> int
val n_edges : t -> int
val task : t -> Task.id -> Task.t
val tasks : t -> Task.t array
val edges : t -> edge list
val succs : t -> Task.id -> (Task.id * float) list
(** Successors with edge data sizes. *)

val preds : t -> Task.id -> (Task.id * float) list
val has_edge : t -> Task.id -> Task.id -> bool
val sources : t -> Task.id list
(** Tasks without predecessors, ascending. *)

val sinks : t -> Task.id list
(** Tasks without successors, ascending. *)

val topological_order : t -> Task.id array
(** A topological order (deterministic: Kahn's algorithm with a min-id
    queue). *)

val is_weakly_connected : t -> bool

val longest_path_hops : t -> int
(** Number of vertices on the longest source-to-sink chain. *)

val pp : Format.formatter -> t -> unit
