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
    decision prefixes its earlier attempts already scanned). The cache
    holds converged results and the iterates of queries a [stop] test cut
    short ({!query_delta}), at most [2^16] entries of either kind, the
    whole table dropped when it is full. A query of the same inputs
    resumes a stored iterate where it stopped, so a candidate pruned at
    one [run_adaptive] weight and needed at another, or by a later
    request to a warm server, pays only the steps it had not run yet.
    Hit/miss, fixed-point-iteration, factored-solve and wall-time
    counters are kept per engine and globally.

    {1 Thread safety}

    One engine may be queried concurrently from multiple {!Tats_util.Pool}
    worker domains. The influence matrix is immutable after {!create};
    the mutable state — the inquiry cache, the warm-start vector and the
    per-engine counter record — sits behind a per-engine mutex, taken
    twice per query (the lookup with its counter bumps, then the insert
    with the rest), never around a fixed-point solve. Stored iterates and
    the warm-start vector are copied in from the solver's buffers and
    never mutated once stored, and a caller gets its own copy of what it
    reads, so a value never depends on a race; only which query stores an
    entry first does. The global aggregate lives in the
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
  inquiries : int;
      (** leakage inquiries served: {!query_with_leakage} and {!query_delta}
          calls, one each, also when one resumes a stopped iterate *)
  cache_hits : int;
      (** of which answered from a cache entry without running a step: a
          converged result, or a stopped iterate the query's own [stop]
          test already holds of (it returns that iterate) *)
  fp_iterations : int;
      (** damped fixed-point steps actually run: a resumed query counts
          only the steps it adds to the stored iterate *)
  factored_solves : int;  (** LU back-substitutions (influence columns) *)
  dense_solves : int;
      (** back-substitutions the dense path would have needed for the same
          inquiries: per inquiry, one linear solve plus every step from the
          seed to the returned iterate — the savings baseline *)
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
    power basis (the per-PE cumulated energies), and its mean. *)

val base_response : t -> power:float array -> base

val query_delta :
  ?max_iter:int ->
  ?tol:float ->
  ?stop:(float array -> bool) ->
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
    building that vector and calling {!query_with_leakage}.

    [stop] is {!Steady.fixed_point}'s: asked of every unconverged iterate
    (the seed, or the iterate the cache resumes from, included) before the
    step that would follow it; the query returns the first iterate it
    holds of instead of the fixed point. The damped iteration climbs
    block by block from the seed (see {!seed_floor}), so every iterate,
    like the seed, bounds the result from below; a caller that only needs
    the result when it can beat some threshold stops as soon as that
    bound rules it out. [stop] is never asked of the converged result, so
    a caller learns which one it got from its own last answer. A stopped
    iterate is cached like a result (see {!stats}): the next query of the
    same inputs resumes it, exactly.

    A miss pays its cache key and lookup, as a hit does, then only its
    fixed point and the store: the two input vectors are filled by plain
    loops, the fixed point's steps allocate nothing
    ({!Steady.fixed_point}), and the [inquiry.solve] trace span costs a
    closure only while tracing is on. *)

val seed_floor :
  t -> base:base -> horizon:float -> pe:int -> extra:float -> float
(** A lower bound on the mean of the seed {!query_delta} starts its fixed
    point from, in O(1) and with no solve, no cache traffic and no counter
    bump: the mean of [base]'s response over [horizon] plus [extra] times
    the mean of column [pe] (kept per engine), on top of the ambient. That
    sum is the seed's mean in real arithmetic; its rounding differs from
    the per-block summation's, so it is lowered by [(2n + 8) n
    epsilon_float] times the magnitude of its terms, which covers the
    rounding of both ([n] blocks). It also bounds the mean of
    [query_delta]'s result from below: every influence entry is
    non-negative and the capped leakage is increasing in temperature, so
    the damped iteration only climbs from its linear seed, block by block,
    and the seed's mean is the first bound [stop] sees. [List_sched] uses
    it to skip the inquiries that cannot change a pick. Same argument
    checks as {!query_delta}. *)

val stats : t -> stats
val reset_stats : t -> unit

val global_stats : unit -> stats
(** Aggregate over every engine created since the last
    {!reset_global_stats} — the bench harness' view. *)

val reset_global_stats : unit -> unit
