(** Genetic-algorithm floorplanner (the ISQED'05 [3] substrate).

    Individuals are Polish expressions; fitness is a caller-supplied cost
    over the evaluated placement (lower is better), letting the co-synthesis
    flow mix die area, wirelength and peak temperature. Selection is
    tournament with elitism; crossover recombines the operand order of one
    parent with the cut structure of the other; mutation swaps operands,
    complements cut chains, or moves an operator. *)

type params = {
  population : int;   (** >= 2 *)
  generations : int;  (** >= 1 *)
  crossover_rate : float; (** in [0, 1] *)
  mutation_rate : float;  (** in [0, 1] *)
  tournament : int;   (** >= 1 *)
  elite : int;        (** carried over unchanged, < population *)
}

val default_params : params
(** population 24, generations 60, crossover 0.9, mutation 0.35,
    tournament 3, elite 2. *)

type result = {
  best_expr : Slicing.expr;
  best_placement : Placement.t;
  best_cost : float;
  history : float array; (** best cost after each generation *)
}

val run :
  ?params:params ->
  ?pool:Tats_util.Pool.t ->
  seed:int ->
  blocks:Block.t array ->
  cost:(Placement.t -> float) ->
  unit ->
  result
(** Runs the GA. The initial population contains the canonical chain plus
    random expressions. Deterministic for a fixed seed.

    Fitness evaluation runs on [pool] (default: {!Tats_util.Pool.default}).
    Breeding — selection, crossover, mutation, everything that draws from
    the seed's random stream — stays sequential; only the (randomness-free)
    [Slicing.evaluate] + [cost] calls fan out, and their results return
    positionally, so the run is bit-identical at any pool size. [cost]
    must therefore be pure, or at least thread-safe and
    schedule-independent: it is called concurrently from multiple domains.
    The co-synthesis flow's thermal cost qualifies — it builds a fresh
    private {!Tats_thermal.Hotspot} per evaluation.

    [cost] is called once per distinct expression per run: a table local
    to the run maps each expression scored so far to its placement and
    cost, and only the children it misses are evaluated (on [pool]). A
    pure [cost] makes this exact — selection, sorting, [history] and the
    best expression are those of scoring every child afresh. Population
    members with equal expressions, and so [best_placement], share one
    {!Placement.t}; nothing in the library mutates a placement. The
    table dies with the run.

    Metrics ({!Tats_util.Metricsreg}): [ga.evaluations] counts the
    [cost] calls (distinct expressions), [ga.memo_hits] the children
    answered from the table; their sum is [population + generations *
    (population - elite)] per run. *)

val crossover : Slicing.expr -> Slicing.expr -> Slicing.expr
(** [crossover a b] keeps the cut skeleton of [a] and fills its operand
    slots in the order the operands appear in [b]: always valid. Fresh
    array. Exposed for tests. *)

val mutate : Tats_util.Rng.t -> Slicing.expr -> Slicing.expr
(** One random move on a copy of the expression (swap two operands,
    complement an operator chain, or swap an adjacent operand/operator
    pair when that keeps it valid). Exposed for tests. *)
