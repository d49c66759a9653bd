(** The thermal inquiry engine.

    The scheduler's hot path issues a HotSpot inquiry for every (ready
    task, PE) candidate at every scheduling step. Solving the network with
    a factored back-substitution inside the leakage fixed point for each of
    them dominates table regeneration, so this engine precomputes, once per
    (package, placement), the {e thermal influence matrix} — the block
    temperature response per unit power injected on each block (one
    {!Tats_linalg.Lu.unit_solution} per block). Every subsequent linear
    solve is then [ambient + M.p], an O(n_blocks²) accumulation with no
    factored solves at all, and within one scheduling step candidates are
    delta-evaluated in O(n_blocks) from a per-step base response
    ({!base_response} / {!query_delta}).

    Numerical equivalence: the engine runs the {e same} damped fixed point
    as {!Steady.solve_with_leakage} ({!Steady.fixed_point}), seeded with
    the same linear solution, so fast-path temperatures match the dense
    path to floating-point noise (well within 1e-6 °C — see
    [test/test_inquiry.ml]).

    Inquiries are cached keyed on the (1 nW-quantized) power vectors,
    packed into one string; repeated inquiries are served from the cache
    ([List_sched.run_adaptive] no longer re-issues the inquiries of
    decision prefixes its earlier attempts already scanned). Hit/miss, fixed-point-iteration, factored-solve
    and wall-time counters are kept per engine and globally.

    {1 Thread safety}

    One engine may be queried concurrently from multiple {!Tats_util.Pool}
    worker domains. The influence matrix is immutable after {!create};
    the mutable state — the inquiry cache, the warm-start vector and the
    per-engine counter record — sits behind a per-engine mutex, taken only
    around cache lookups/inserts and counter bumps, never around a
    fixed-point solve. The global aggregate lives in the
    {!Tats_util.Metricsreg} registry as lock-free named counters
    ([inquiry.*]). Two caveats matter for deterministic parallel use:

    - [~warm:true] reads a warm-start vector that concurrent queries race
      to write, so the iteration path (and the result, within [tol])
      depends on scheduling. Deterministic parallel callers must use the
      default [~warm:false].
    - The cache itself is value-safe (a hit returns a bit-exact copy of
      what a fresh solve would produce under default settings), but
      cache-dependent {e counters} become schedule-dependent. Callers that
      assert exact counter values, or want queries with zero shared-state
      traffic, pass [~cache:false] for a fully stateless query. *)

type t

type stats = {
  inquiries : int;  (** leakage inquiries served *)
  cache_hits : int;  (** of which from the cache *)
  fp_iterations : int;  (** damped fixed-point iterations executed *)
  factored_solves : int;  (** LU back-substitutions (influence columns) *)
  dense_solves : int;
      (** back-substitutions the dense path would have needed for the same
          inquiries — the savings baseline *)
  delta_evals : int;  (** O(n) candidate delta-evaluations *)
  wall_time : float;
      (** wall-clock seconds spent inside the engine, summed per query
          ({!Tats_util.Trace.now}; additive across pool domains, unlike the
          process CPU time [Sys.time] used to report here) *)
}

val empty_stats : stats
val pp_stats : Format.formatter -> stats -> unit

val create : Steady.t -> t
(** Builds the influence matrix — [n_blocks] factored solves, once. *)

val solver : t -> Steady.t
val n_blocks : t -> int
val package : t -> Package.t

val influence : t -> Tats_linalg.Matrix.t
(** The influence matrix [M]: entry [(i, j)] is the steady-state
    temperature rise of block [i] per W injected on block [j]. *)

val influence_column : t -> int -> float array
(** Column [j] of [M] — the response profile of heating block [j]. *)

val temperatures : t -> power:float array -> float array
(** Linear (leakage-free) block temperatures [ambient + M.p]; matches
    {!Steady.block_temperatures} to floating-point noise. *)

val query_with_leakage :
  ?max_iter:int ->
  ?tol:float ->
  ?warm:bool ->
  ?cache:bool ->
  t ->
  dynamic:float array ->
  idle:float array ->
  float array
(** Drop-in fast path for {!Steady.solve_with_leakage} (same damping, same
    convergence test, influence-matrix inner solves). [warm] (default
    [false]) seeds the fixed point from this engine's previous converged
    solution when one exists — fewer iterations for a stream of similar
    inquiries, at the price of a (bounded by [tol]) different iteration
    path. Results are cached; non-default [max_iter]/[tol] bypass the
    cache, as does [~cache:false], which additionally skips the cache
    insert and the warm-start store: with [~warm:false ~cache:false] the
    query is fully stateless (counters aside) and its result a pure
    function of the engine's influence matrix and the power vectors — the
    mode parallel Monte-Carlo uses for bit-reproducibility at any domain
    count. *)

type base
(** A per-scheduling-step precomputation: the influence response of a fixed
    power basis (the per-PE cumulated energies). *)

val base_response : t -> power:float array -> base

val query_delta :
  ?max_iter:int ->
  ?tol:float ->
  t ->
  base:base ->
  horizon:float ->
  pe:int ->
  extra:float ->
  idle:float array ->
  float array
(** The paper's candidate inquiry, delta-evaluated: dynamic power
    [base_power / horizon + extra . e_pe], fixed point seeded with the
    O(n_blocks) linear combination [ambient + response/horizon +
    extra . col(pe)] instead of a fresh solve. Semantics identical to
    building that vector and calling {!query_with_leakage}. *)

val stats : t -> stats
val reset_stats : t -> unit

val global_stats : unit -> stats
(** Aggregate over every engine created since the last
    {!reset_global_stats} — the bench harness' view. *)

val reset_global_stats : unit -> unit
