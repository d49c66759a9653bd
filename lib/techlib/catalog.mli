(** Default PE catalogues used by the experiments.

    Co-synthesis draws from a heterogeneous catalogue (low-power, standard
    and high-performance cores plus a DSP and an accelerator); the
    platform-based architecture uses four identical standard cores, matching
    the paper's "four identical PEs". *)

val heterogeneous : unit -> Pe.kind list
(** Five kinds; the DSP and accelerator are specialized for a subset of the
    default benchmark task types. *)

val platform_kind : unit -> Pe.kind
(** The standard core used (x4) by the platform-based architecture. *)

val std_platform : int -> Platform.t
(** [std_platform n] — [n] (positive) identical standard cores, named
    ["std<n>"]; [std_platform 4] is the builtin ["std4"]. *)

val platform_instances : int -> Pe.inst array
(** [platform_instances n] — the instances of {!std_platform}[ n]. *)

val default_library : unit -> Library.t
(** The library shared by all paper experiments: heterogeneous catalogue,
    {!Tats_taskgraph.Benchmarks.n_task_types} task types, fixed seed. *)

val platform_library : unit -> Library.t
(** Same task types and seed, restricted to the platform kind (kind_id 0):
    {!library_for} any {!std_platform}. *)

(** {1 Typed builtin platforms} *)

val builtin_platforms : unit -> Platform.t list
(** The named platforms accepted by the CLI, the server protocol and the
    campaign runner:

    - ["std4"] — four identical standard cores, {!std_platform}[ 4] (the
      paper's platform; its library is {!platform_library}).
    - ["biglittle4"] — two big cores (fast, hot) + two LITTLE cores
      (slow, cool), ARM big.LITTLE style.
    - ["mixed6"] — one big, two standard, three LITTLE cores. *)

val platform_named : string -> Platform.t option
(** Look a builtin platform up by name. *)

val platform_names : unit -> string list
(** Names of {!builtin_platforms}, in order. *)

val platform_of_name : string -> (Platform.t, string) result
(** {!platform_named}, with the one error message every front end (CLI,
    tatsd, campaign specs) reports for a miss:
    [unknown platform "x" (want std4|biglittle4|mixed6)]. *)

val library_for : Platform.t -> Library.t
(** The technology library for a typed platform: the shared seed and task
    types, with one column per platform kind. *)
