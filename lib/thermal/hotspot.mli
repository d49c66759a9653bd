(** The HotSpot-style facade the scheduler talks to.

    "HotSpot takes a system floorplanning and the power consumption for each
    function block as input, and generates accurate temperature estimation
    for each block" — this module is exactly that interface, caching the
    factored network so that the thousands of inquiries issued during
    thermal-aware scheduling each cost one back-substitution. *)

type t

val create : ?package:Package.t -> Tats_floorplan.Placement.t -> t
(** Builds and factors the compact RC network for the placement. *)

val n_blocks : t -> int
val package : t -> Package.t
val placement : t -> Tats_floorplan.Placement.t

val query : t -> power:float array -> float array
(** Steady-state block temperatures (°C) for per-block powers (W). *)

val inquire_with_leakage :
  ?warm:bool ->
  ?cache:bool ->
  t ->
  dynamic:float array ->
  idle:float array ->
  float array
(** Temperature-dependent leakage fixed point served by the {!Inquiry}
    engine: influence-matrix solves, a quantized-power cache, optional warm
    start — the production hot path. Matches the dense reference
    {!Steady.solve_with_leakage} within floating-point noise. [warm] and
    [cache] as in {!Inquiry.query_with_leakage}; parallel callers that
    need bit-reproducible results use [~warm:false ~cache:false]. The
    facade itself is thread-safe (lazy engine creation and the inquiry
    counter are mutex-guarded). *)

val inquiry : t -> Inquiry.t
(** The facade's inquiry engine, built (n_blocks factored solves) on first
    use and shared by every subsequent fast-path query. *)

val inquiry_stats : t -> Inquiry.stats
(** Engine counters ({!Inquiry.empty_stats} when no fast-path query was
    ever issued). *)

val average_temperature : t -> power:float array -> float
(** The scalar the paper's thermal-aware DC consumes: the mean of the block
    temperatures for the given power assignment. *)

val peak_temperature : t -> power:float array -> float

val inquiries : t -> int
(** Number of inquiries served so far across both paths — direct [query]
    calls plus engine inquiries (experiment instrumentation). *)

val model : t -> Rcmodel.t
val solver : t -> Steady.t
