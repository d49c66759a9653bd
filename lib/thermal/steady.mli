(** Steady-state temperature extraction.

    The network matrix is constant for a fixed floorplan, so it is factored
    once and each power inquiry costs a single back-substitution — the
    operation the thermal-aware scheduler performs for every candidate
    (task, PE) pair. *)

type t
(** A factored steady-state solver for one RC model. *)

exception Runaway of { iterations : int; residual : float }
(** The leakage fixed point ran [iterations] (its [max_iter]) damped steps
    without converging; [residual] is the last step's largest block
    temperature change, in °C ([infinity] when no step ran). Raised by
    {!fixed_point}, hence by {!solve_with_leakage} and every
    {!Inquiry} query. Registered with [Printexc], which prints it as a
    one-line "thermal runaway" message. *)

val create : Rcmodel.t -> t

val solve : t -> power:float array -> float array
(** [solve t ~power] returns node temperatures (length [n_nodes]); the first
    [n_blocks] entries are the block temperatures in °C. [power] is per
    block, W, non-negative. *)

val block_temperatures : t -> power:float array -> float array
(** Just the block entries. *)

val solve_with_leakage :
  ?max_iter:int ->
  ?tol:float ->
  t ->
  dynamic:float array ->
  idle:float array ->
  float array * int
(** Fixed-point iteration coupling temperature and leakage:
    [p_i = dynamic_i + idle_i * exp(beta * (T_i - T_ref))]. Returns block
    temperatures and the iteration count. [max_iter] defaults to 200, [tol]
    (max °C change) to 1e-6. Raises {!Runaway} when it has not converged
    after [max_iter] iterations. *)

type iterate = {
  temps : float array;  (** block temperatures, °C *)
  steps : int;  (** damped steps taken from the linear seed *)
  residual : float;
      (** the last step's largest block temperature change, °C
          ([infinity] before the first step) *)
}
(** A point on the damped leakage iteration: all that its next step
    depends on. *)

val seed : float array -> iterate
(** [seed temps] starts an iteration from [temps]: no step taken yet. *)

val default_max_iter : int
(** {!fixed_point}'s step limit when [max_iter] is not given: 200. *)

val default_tol : float
(** {!fixed_point}'s convergence tolerance when [tol] is not given: 1e-6
    °C, the largest block change of a converged step. *)

val damping : float
(** The share of a step's new solve that a damped step commits: 0.4. *)

val inertia : float
(** The share of the current iterate a damped step keeps: 0.6. So step
    [k + 1] is [damping * S(T(k)) + inertia * T(k)], block by block. *)

val max_leak_excursion : float
(** The cap, in K above the reference temperature, on the excursion in
    the leakage exponent: 100. *)

type work
(** {!fixed_point}'s three work buffers (a power vector and two
    temperature vectors), for a caller that runs many fixed points of one
    size. *)

val work : int -> work
(** Work buffers for fixed points of [n] blocks. *)

val work_size : work -> int

val fixed_point :
  ?max_iter:int ->
  ?tol:float ->
  ?work:work ->
  ?init:iterate ->
  ?stop:(float array -> bool) ->
  package:Package.t ->
  solve:(float array -> float array -> unit) ->
  dynamic:float array ->
  idle:float array ->
  unit ->
  iterate
(** The damped leakage fixed point itself, parameterized over the linear
    solve so that {!solve_with_leakage} (dense back-substitution) and the
    influence-matrix fast path of {!Inquiry} run the *same* iteration —
    the basis of their numerical-equivalence guarantee. [solve power dst]
    must write the block temperatures for [power] into [dst] (both of
    [dynamic]'s length). [init] is where the iteration starts: a warm
    start from a previous solution ({!seed}), or an iterate an earlier
    call returned, which it resumes exactly — same trajectory, same step
    count and residual as one uninterrupted call. By default it starts
    from the linear solution of [dynamic]. Its work buffers (three arrays
    of [dynamic]'s length) are [work] when given (Invalid_argument if its
    size is not [dynamic]'s), else allocated once per call. With [work],
    the returned iterate's [temps] is one of its buffers: valid until the
    next call on the same [work], which overwrites it; [init]'s
    temperatures may be one of them too. A step allocates
    nothing of its own: the leakage term is written out in the loop and
    the step count and residual live in unboxed locals, so its cost is
    its arithmetic ([exp] per block) plus [solve] and [stop]. Each call
    records its step count in the [steady.fp_iterations] histogram.

    Returns the converged iterate (its residual at most [tol]), or the first
    unconverged one that [stop] holds of. [stop] (default: never) is
    asked of every unconverged iterate before the step that would follow
    it — the linear seed included, but not [init]: a caller that passes
    one has asked its own test of it — and must not keep its argument, a
    work buffer. Raises {!Runaway} when it reaches [max_iter] steps,
    counted from the seed, without converging; an iterate [stop] held of
    before that does not raise.

    Every call records the steps it ran in the [steady.fp_iterations]
    histogram. {!Inquiry.ask} answers a stored state that is already
    converged, or that its [stop] holds of, without calling this
    function, so those answers record no 0 there. *)

val factored : t -> Tats_linalg.Lu.t
(** The factored network matrix (for influence-column extraction). *)

val influence_columns : ?n:int -> t -> float array array
(** The first [n] columns of the network inverse — column [j] is the
    node temperature response to 1 W injected at node [j] — extracted in
    one batched back-solve ({!Tats_linalg.Lu.solve_many}) instead of a
    loop of unit solves. [n] defaults to [n_nodes] (the full inverse).
    Element-wise identical to
    [Array.init n (Lu.unit_solution (factored t))]; {!Inquiry} builds
    its influence matrix from the block-row prefix of the first
    [n_blocks] columns. *)

val model : t -> Rcmodel.t
