(** The target technology library of the paper: worst-case execution time
    (WCET) and worst-case power consumption (WCPC) for every task type on
    every PE kind, plus the communication model. *)

type t

val generate : seed:int -> n_task_types:int -> kinds:Pe.kind list -> ?comm:Comm.t -> unit -> t
(** Synthesizes a consistent library: each task type gets a reference WCET
    (uniform in [40, 160] time units) and a power intensity (uniform in
    [0.6, 1.6]); on a kind, WCET = reference / speed x jitter x any
    specialization multiplier, WCPC = power_scale x intensity x jitter.
    Faster kinds therefore run hotter — the tension the paper's heuristics
    trade on. *)

val of_tables :
  kinds:Pe.kind list ->
  wcet:float array array ->
  wcpc:float array array ->
  ?comm:Comm.t ->
  unit ->
  t
(** Explicit tables indexed [task_type][kind_id]. Both must be rectangular,
    positive and finite, and agree in shape. They are copied. *)

val n_task_types : t -> int
val kinds : t -> Pe.kind array
val kind : t -> int -> Pe.kind
val comm : t -> Comm.t

val wcet : t -> task_type:int -> kind:int -> float
val wcpc : t -> task_type:int -> kind:int -> float
val energy : t -> task_type:int -> kind:int -> float
(** [wcet * wcpc]: the task's worst-case energy on that kind — heuristic 3's
    objective. *)

val wcet_avg : t -> task_type:int -> float
(** Average WCET over all kinds: the node weight used for static
    criticality. *)

val max_wcpc : t -> float
val max_energy : t -> float
(** Library-wide maxima over every (task type, kind), used to normalize DC
    cost terms. Folded once when {!of_tables} or {!generate} builds the
    library, so each call is a field read. *)

val pp : Format.formatter -> t -> unit
