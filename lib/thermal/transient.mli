(** Transient thermal simulation: [C dT/dt = -A T + rhs(t)].

    Two layers share this module.

    The whole-trace integrators {!rk4} and {!backward_euler} keep the
    original sampled interface: a [power] callback evaluated on a uniform
    time grid. RK4 is accurate for small steps; backward Euler is
    unconditionally stable — suited to the stiff block/package
    time-constant mix.

    The event-driven engine ({!t}) exploits that schedules produce
    {e piecewise-constant} power, the only shape the runtime layer replays:

    - a step-matrix integrator ({!step}) that factors [(C/dt + A)] once per
      distinct [dt] through the blocked {!Tats_linalg.Lu} and reuses
      [Lu.solve_factored_into] with allocation-free state buffers — its
      arithmetic is bit-identical to the original backward-Euler stepper;
    - a recurrence fast path ({!step_fast}) that precomputes the per-[dt]
      propagator [M = (C/dt + A)⁻¹ (C/dt)] once, so a step is
      [T ← M T + q(p)] — one n×n mat-vec — with [q(p) = (C/dt + A)⁻¹ rhs(p)]
      cached per distinct power vector, bit for bit ({!Fkey});
    - an exact segment replay ({!replay}) over a {!profile} of power
      breakpoints instead of sampling.

    Engine activity is visible as [transient.*] counters in
    {!Tats_util.Metricsreg} and [transient.factor] / [transient.propagator]
    / [transient.replay] spans in {!Tats_util.Trace}. *)

type trace = { times : float array; temps : float array array }
(** [temps.(k)] is the node temperature vector at [times.(k)]. *)

val initial_ambient : Rcmodel.t -> float array
(** All nodes at the package ambient. *)

val rk4 :
  Rcmodel.t ->
  power:(float -> float array) ->
  t0:float array ->
  dt:float ->
  steps:int ->
  trace
(** [power time] gives per-block power at [time]; the returned array must
    have exactly [Rcmodel.n_blocks] entries (checked — raises
    [Invalid_argument] otherwise). *)

val backward_euler :
  Rcmodel.t ->
  power:(float -> float array) ->
  t0:float array ->
  dt:float ->
  steps:int ->
  trace
(** Same contract as {!rk4}. Internally runs on the event-driven engine's
    exact stepper; results are bit-identical to the original seed
    integrator. *)

val settle_time :
  trace -> steady:float array -> tol:float -> float option
(** First time at which every node is within [tol] °C of [steady] and stays
    there for the rest of the trace. *)

(** {1 Event-driven engine} *)

type system
(** A linear thermal system [C dT/dt = -A T + u], with
    [u(p).(i) = p.(i) + base_rhs.(i)] for the first [n_inputs] nodes and
    [base_rhs.(i)] elsewhere. *)

val system :
  a:Tats_linalg.Matrix.t ->
  c:float array ->
  base_rhs:float array ->
  n_inputs:int ->
  system
(** Build a system directly — the test battery uses this for closed-form
    single-node RC circuits. [a] must be square with one row per entry of
    [c] and [base_rhs]; capacitances must be positive;
    [0 <= n_inputs <= n]. Raises [Invalid_argument] otherwise. *)

val of_model : Rcmodel.t -> system
(** The compact RC network as a system: [n_inputs = n_blocks], and
    [base_rhs] the power-independent ambient injection, so that
    [u(power)] equals [Rcmodel.rhs ~power] bit for bit. *)

val system_size : system -> int
val system_inputs : system -> int

type t
(** An engine instance: per-[dt] factorizations, propagators and [q]
    caches, plus reusable state buffers. Not
    thread-safe — confine each engine to one domain. *)

val create : system -> t

val step : t -> dt:float -> power:float array -> float array -> unit
(** One backward-Euler step in place on the temperature vector:
    [(C/dt + A) T' = (C/dt) T + u(power)]. The first [step] at a given
    [dt] factors [(C/dt + A)]; subsequent steps reuse the factorization
    and internal buffers (no per-step allocation). Bit-identical to the
    seed integrator's arithmetic. Raises [Invalid_argument] when [dt <= 0]
    or [power]/temperature lengths are wrong. *)

val step_fast : t -> dt:float -> power:float array -> float array -> unit
(** One recurrence step [T ← M T + q(power)] in place. The first
    [step_fast] at a given [dt] builds the propagator ([n] batched
    factored solves); [q] is cached per distinct power vector, bit for
    bit, so replaying constant power costs one mat-vec per step. Within
    floating-point round-off of {!step} (not bit-identical: the solve of a
    sum is not the sum of solves). *)

(** {2 Piecewise-constant power profiles} *)

type profile
(** One period of a periodic piecewise-constant power trace: exact
    breakpoints, no sampling. *)

val profile : duration:float -> segments:(float * float array) list -> profile
(** [profile ~duration ~segments] with [segments = [(s0, p0); (s1, p1); ...]]:
    power [pk] (one entry per input) holds on [[sk, s{k+1})], the last
    segment until [duration]. Segment starts must begin at [0.], ascend
    strictly, and stay below [duration]; all power vectors must have the
    same length. Raises [Invalid_argument] otherwise. *)

val profile_duration : profile -> float
val profile_segments : profile -> int

val profile_power : profile -> float -> float array
(** [profile_power p t] is a copy of the power vector in force at time
    [t mod duration] — the piecewise evaluation the engine integrates. *)

type replay_result = {
  final : float array;      (** node temperatures at the end of the replay *)
  peak : float array;       (** per-node peak over the whole replay, incl. [t0] *)
  last_period_peak : float array;  (** per-node peak over the last period *)
  steps : int;              (** integration steps taken *)
  trace : trace option;     (** full trace when [record] *)
}

val replay :
  ?record:bool ->
  ?exact:bool ->
  t ->
  profile:profile ->
  t0:float array ->
  dt:float ->
  periods:int ->
  replay_result
(** Replay [periods] repetitions of [profile] starting from [t0]: each
    segment is integrated with steps of [dt] plus one exact remainder step
    to land on the breakpoint (event-driven — no breakpoint is ever
    straddled or sampled). Per-segment [q] vectors (or right-hand sides,
    under [~exact:true]) are precomputed once, so the per-step cost is one
    mat-vec ([~exact:false], the default) or one factored solve
    ([~exact:true], bit-identical to {!step}). [record] (default [false])
    retains the full trace; peaks and the final state are always
    returned. *)

(** {2 Instrumentation} *)

type stats = {
  steps : int;              (** integration steps served *)
  factorizations : int;     (** distinct [(C/dt + A)] factorizations *)
  propagator_builds : int;  (** distinct propagators materialized *)
  q_cache_hits : int;
  q_cache_misses : int;
}

val stats : t -> stats
(** This engine's counters. The same counts accumulate process-wide in
    {!Tats_util.Metricsreg} under [transient.steps],
    [transient.factorizations], [transient.propagator_builds],
    [transient.q_cache_hits] and [transient.q_cache_misses]. *)

val pp_stats : Format.formatter -> stats -> unit
