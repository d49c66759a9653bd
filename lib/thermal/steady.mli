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

val fixed_point :
  ?max_iter:int ->
  ?tol:float ->
  ?init:float array ->
  package:Package.t ->
  solve:(float array -> float array -> unit) ->
  dynamic:float array ->
  idle:float array ->
  unit ->
  float array * int
(** The damped leakage fixed point itself, parameterized over the linear
    solve so that {!solve_with_leakage} (dense back-substitution) and the
    influence-matrix fast path of {!Inquiry} run the *same* iteration —
    the basis of their numerical-equivalence guarantee. [solve power dst]
    must write the block temperatures for [power] into [dst] (both of
    [dynamic]'s length). [init] seeds the iteration (e.g. a warm start
    from a previous solution); by default the linear solution of [dynamic]
    is used. Work buffers are allocated once per call, not per iteration.
    Raises {!Runaway} after [max_iter] iterations without convergence. *)

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
