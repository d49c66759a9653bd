(** The thermal inquiry engine.

    The scheduler's hot path issues a HotSpot inquiry for every (ready
    task, PE) candidate at every scheduling step. Solving the network with
    a factored back-substitution inside the leakage fixed point for each of
    them dominates table regeneration, so this engine precomputes, once per
    (package, placement), the {e thermal influence matrix} — the block
    temperature response per unit power injected on each block (one
    {!Tats_linalg.Lu.unit_solution} per block). Every subsequent linear
    solve is then [ambient + M.p], an O(n_blocks²) accumulation with no
    factored solves at all.

    Numerical equivalence: the engine runs the {e same} damped fixed point
    as {!Steady.solve_with_leakage} ({!Steady.fixed_point}), seeded with
    the same linear solution, so fast-path temperatures match the dense
    path to floating-point noise (well within 1e-6 °C — see
    [test/test_inquiry.ml]).

    The engine answers two kinds of inquiry, and keeps one store:

    - {!query_with_leakage} (metrics and [tatsd] inquiry requests) runs
      the fixed point from the linear seed on every call and stores
      nothing, so its answer is a pure function of the influence matrix
      and the power vectors.
    - The list scheduler's candidate inquiries are answered from
      {e per-step tables} ({!step}): one per scheduling step's base (the
      committed PE energies and the idle powers, bit for bit), holding
      one {e slot} per distinct inquiry asked on it, keyed bit for bit by
      (PE, horizon, task power). A slot holds its inquiry's latest
      stopped iterate, or its converged mean once it converged. So
      identical candidates of a step share one fixed point, a candidate
      pruned at its slot's iterate or already converged costs a mean, and
      a resumed one pays only the steps it had not run yet, from
      {!Steady.fixed_point}'s [init]: exactly, since a slot answers only
      inputs bit-identical to its own and the fixed point is deterministic
      and exactly resumable. Tables live in the engine, so a later
      [run_adaptive] weight, a reference bisection's fresh [run] or a
      later request to a warm server finds them; together with their
      slots they are bounded by [2^16] entries, all dropped when full.

    Hit, fixed-point-iteration, factored-solve and wall-time counters are
    kept per engine and globally.

    {1 Thread safety}

    One engine may be queried concurrently from multiple {!Tats_util.Pool}
    worker domains. The influence matrix is immutable after {!create};
    the mutable state — the step tables and the per-engine counter
    record — sits behind a per-engine mutex, never held around a
    fixed-point solve. A {!query_with_leakage} takes it once, to count
    itself; the step path takes it once per {!step}, once per first
    {!ask} of a candidate (its slot lookup), once per new slot and once
    per {!flush}. A slot's state is replaced whole, and only ever by a
    state further along its trajectory, so a value never depends on a
    race, and every answer is bit-equal to a fresh solve of its inputs.
    The store-dependent {e counters} (hits, steps run) do depend on which
    query stores first. The global aggregate lives in the
    {!Tats_util.Metricsreg} registry as lock-free named counters
    ([inquiry.*]). *)

type t

type stats = {
  inquiries : int;
      (** leakage inquiries served: {!query_with_leakage} and {!ask} calls,
          one each, also when one resumes a stopped iterate *)
  cache_hits : int;
      (** of which {!ask}s answered from a step table without running a
          step: a converged slot, or a stopped iterate the inquiry's own
          [stop] test already holds of *)
  fp_iterations : int;
      (** damped fixed-point steps actually run: a resumed inquiry counts
          only the steps it adds to the stored iterate *)
  factored_solves : int;  (** LU back-substitutions (influence columns) *)
  dense_solves : int;
      (** back-substitutions the dense path would have needed for the same
          inquiries: per inquiry, one linear solve plus every step from the
          seed to the returned iterate — the savings baseline *)
  delta_evals : int;  (** {!ask} calls: O(n) per-step delta evaluations *)
  wall_time : float;
      (** wall-clock seconds ({!Tats_util.Trace.now}; additive across pool
          domains, unlike process CPU time): the whole of every
          {!query_with_leakage}, and the fixed points {!ask} ran. An [ask]
          answered without a step reads no clock and adds nothing. *)
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
  ?max_iter:int -> t -> dynamic:float array -> idle:float array -> float array
(** Drop-in fast path for {!Steady.solve_with_leakage}: the same damped
    fixed point from the same linear seed and the same convergence test,
    with influence-matrix inner solves. Every call solves afresh and
    stores nothing, so equal inputs give bit-equal answers on any engine
    of the same influence matrix, at any domain count, and the returned
    array is the caller's. [max_iter] (default 200) bounds the steps;
    {!Steady.Runaway} when it is reached unconverged. Records an
    [inquiry.solve] span while tracing, its step count in the
    [inquiry.solve_iterations] histogram and its time in
    [inquiry.solve_seconds]. *)

type base
(** A per-scheduling-step precomputation: the influence response of a fixed
    power basis (the per-PE cumulated energies), and its mean. *)

val base_response : t -> power:float array -> base

val response : base -> float array
(** A copy of the base's influence response [M.p] (no ambient term). *)

val leakage_lift :
  t -> base:base -> idle:float array -> horizon:float -> float
(** [leakage_lift t ~base ~idle ~horizon] is how far, at least, the
    leakage raises the converged mean of every inquiry on a step of base
    [base] and idle powers [idle] whose horizon is at most [horizon],
    above its linear seed: [(1 - inertia^K) mean(L)] with
    [L = M (idle . exp(beta min(T_lo - T_ref, 100)))] the leakage rise at
    [T_lo = ambient + response / horizon], the coolest seed of those
    inquiries, and [K] the fewest damped steps in which any of them can
    converge, given that its first residual is at least [damping max L]
    and each later one at least [inertia] times the one before
    ({!Steady.damping}, {!Steady.inertia}). Lowered by a margin for its
    own rounding; never negative. One exponential per block and one
    n×n product: a caller computes it once per step, for the largest
    horizon among its inquiries. Raises [Invalid_argument] on an idle
    vector of the wrong length or a non-positive horizon. *)

val seed_floor :
  t -> base:base -> lift:float -> horizon:float -> pe:int -> extra:float -> float
(** A lower bound on the mean of {!ask}'s converged result for
    [(horizon, pe, extra)] on a step of base [base], when [lift] is
    {!leakage_lift} of that step for a horizon at least [horizon] (or
    0), in O(1) and with no solve, no store traffic and no counter bump:
    the seed's mean plus [lift]. The seed's mean is the mean of [base]'s
    response over [horizon] plus [extra] times the mean of column [pe]
    (kept per engine), on top of the ambient: that of the seed {!ask}
    starts the fixed point from, in real arithmetic. Two margins lower
    it: [(2n + 8) n epsilon_float] times the magnitude of the seed's terms
    covers the rounding of that sum and of the per-block summation ([n]
    blocks), and [max_iter (n + 8) epsilon_float] times
    [|ambient| + n (seed rise + lift)] the float iteration's distance
    from the real one over at most [max_iter] steps. Every influence
    entry is non-negative and the capped leakage is increasing in
    temperature, so the damped iteration climbs from its linear seed,
    block by block, and its converged mean is at least the seed's plus
    the lift (DESIGN.md section 6). The iterates before convergence may
    lie below the lifted floor: a caller that tightens the floor with
    iterate bounds keeps the larger of the two. [List_sched] uses it to
    skip the inquiries that cannot change a pick. Raises
    [Invalid_argument] on a PE out of range or a non-positive horizon. *)

(** {1 Per-step tables} *)

type step
(** One scheduling step's table: its base response and idle powers, and
    a slot per distinct inquiry a fixed point ran a step for. *)

val step : t -> power:float array -> idle:float array -> step
(** The engine's table for the step whose committed PE energies are
    [power] and idle powers [idle], bit for bit: the stored one, or a new
    one (one {!base_response}), stored. One key of [2n] floats, one hash
    and one lock section per call, two when the table is new. *)

val step_base : step -> base
(** The step's base response (for {!leakage_lift} and {!seed_floor}). *)

type slot
(** One inquiry's place in a step's table: none yet, a stopped iterate,
    or a converged mean. *)

val no_slot : slot
(** The slot of a candidate not asked yet: fill a candidate array with it. *)

type tally
(** Counter bumps batched by the caller, one {!flush} for many {!ask}s,
    and the work buffers of the fixed points those asks run (sized at the
    first one), so that a fixed point allocates none of its own. A tally
    serves one domain at a time. *)

val tally : unit -> tally

val flush : t -> tally -> unit
(** Adds the tally to the engine's counters and the [inquiry.*]
    registry, records one [inquiry.refine] span while tracing (from the
    first fixed point's start, lasting their summed time, with the
    [solves] and [steps] they ran) if any fixed point ran, and empties
    the tally. One lock section; nothing when the tally is empty. *)

val ask :
  ?stop:(float -> bool) ->
  t ->
  step ->
  tally ->
  slots:slot array ->
  int ->
  horizon:float ->
  pe:int ->
  extra:float ->
  float
(** [ask t s tally ~slots i ~horizon ~pe ~extra] is the paper's
    candidate inquiry on step [s]: dynamic power [base_power / horizon +
    extra . e_pe], fixed point seeded with the O(n_blocks) linear
    combination [ambient + response/horizon + extra . col(pe)] instead of
    a fresh solve. Returns the mean block temperature (summed in
    {!Tats_util.Stats.mean}'s order) of the converged result, bit-equal
    to building that vector and averaging the fixed point
    {!query_with_leakage} runs from that seed.

    [slots.(i)] caches the candidate's slot: {!no_slot} the first time,
    when [ask] looks the inquiry up in [s]'s table (a key, a hash and a
    lock) and writes back what it found. Once that slot holds a state,
    later asks read it directly, with no key, hash or lock: a converged
    slot answers with its mean, a stopped one resumes from its iterate
    ({!Steady.fixed_point}'s [init]). A slot is entered in the table
    when a fixed point first ran a step on it, so a candidate pruned at
    its seed stores nothing.

    [stop] is asked of the mean of every unconverged iterate (the seed,
    or the iterate the slot resumes from, included) before the step that
    would follow it; the inquiry returns the first mean it holds of
    instead of the fixed point's. The damped iteration climbs block by
    block from the seed (see {!seed_floor}), so every iterate's mean,
    like the seed's, bounds the result from below: a caller that only
    needs the result when it can beat some threshold stops as soon as
    that bound rules it out. [stop] is never asked of the converged
    result, so a caller learns which one it got from its own last
    answer. An answer without a step (converged, or a stored iterate
    [stop] holds of) runs no fixed point and reads no clock.

    Counters go to [tally], not the engine: per call one inquiry, one
    delta eval and [1 +] the returned iterate's steps of dense solves,
    plus a hit when a stored state answered without a step. Raises
    [Invalid_argument] on a PE out of range or a non-positive horizon
    (checked at the slot lookup), and {!Steady.Runaway} from the fixed
    point. *)

val iterate : slot -> Steady.iterate option
(** The stopped iterate a slot holds, if it holds one (not converged). *)

val stats : t -> stats
(** The engine's counters. An {!ask}'s counts reach them when its tally
    is {!flush}ed ([List_sched.pick] flushes once per pick). *)

val reset_stats : t -> unit

val global_stats : unit -> stats
(** Aggregate over every engine created since the last
    {!reset_global_stats} — the bench harness' view. *)

val reset_global_stats : unit -> unit
