(** Domain pool for embarrassingly parallel outer loops.

    The repo's parallel workloads — GA floorplan fitness evaluation, SA
    mapper restarts, campaign cells, table regeneration, batched [tatsd]
    requests — are independent task batches over pure functions. This
    pool runs such batches across OCaml 5 domains.

    One invariant keeps the runtime small: {e at most one batch is in
    flight per pool}. Batches from different domains are serialized and
    nested calls run inline (see below), so a batch is one flat index
    range [\[0, n)] and one atomic claim cursor distributes it: every
    domain, the submitter included, takes the next grain of indices with
    a single [fetch_and_add] until the cursor passes [n]. Fine-grained
    batches of thousands of sub-millisecond tasks thus pay one atomic per
    grain, not a lock round-trip per task. Idle domains sleep on one
    condition variable until the next batch is published. No dependencies
    beyond the stdlib.

    {1 Determinism contract}

    Parallelism here is {e observation-free}: for a pure task function,
    {!parallel_map} and {!parallel_for_reduce} return results that are
    bit-identical at any domain count and under any claim order,
    including [jobs = 1].

    - Results are delivered {e positionally}: slot [i] of the output always
      holds [f xs.(i)], whatever domain computed it and in whatever order
      tasks finished.
    - {!parallel_for_reduce} folds the per-index results in index order
      after the parallel phase, so non-commutative [combine] functions are
      safe.
    - Nothing random is introduced by the pool itself. Callers that need
      per-task randomness must derive one generator per task index from a
      master seed ({!Rng.derive}) {e before} submitting, never share one
      mutable generator across tasks; with that discipline the random
      stream consumed by task [i] is a pure function of [(seed, i)] and the
      whole batch is reproducible at any [jobs].
    - On exception, the batch still runs to completion and the exception
      re-raised in the caller is the one thrown by the {e lowest} failing
      task index — again independent of scheduling.

    Task functions must be thread-safe: they run concurrently on multiple
    domains, and the claim order interleaves them arbitrarily. Pure
    functions over immutable (or task-local) data qualify; shared mutable caches need
    their own locking (see {!Tats_thermal.Inquiry} for the pattern used by
    the thermal engine).

    {1 Nesting and concurrent batches}

    A task that itself calls [parallel_map] on any pool does not deadlock:
    nested calls detect that they already run inside a pool task and
    degrade to inline sequential execution on the current domain. The
    result is the same by the determinism contract; only the parallelism
    is flattened. Batches submitted concurrently from {e different}
    domains are serialized: the second submitter blocks until the first
    batch has drained, then runs normally. *)

type t
(** A pool of worker domains. The pool owns [jobs - 1] spawned domains;
    the domain calling {!parallel_map} is the [jobs]-th worker for the
    duration of the call, so [jobs = 1] spawns no domains at all and runs
    everything inline. *)

type stats = {
  jobs : int;  (** size of the pool, including the submitting domain *)
  batches : int;  (** [parallel_map] / [parallel_for_reduce] calls served *)
  tasks : int;  (** individual task-function applications executed *)
  steals : int;  (** grains run by a spawned worker, not the submitter *)
  parks : int;  (** times a domain found no work and slept *)
  busy : float array;
      (** wall-clock seconds spent inside task bodies, per domain; slot [0]
          is the submitting domain, slots [1 .. jobs - 1] the spawned
          workers *)
}
(** Cumulative counters since {!create} (or the last {!reset_stats}). The
    same quantities feed the process-wide metrics registry as
    [pool.batches], [pool.tasks], [pool.steals] and [pool.parks]. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains. [jobs] defaults to
    [Domain.recommended_domain_count ()] and is clamped to
    [\[1, max_jobs\]].
    Pools are cheap but not free ([Domain.spawn] per worker): create one
    and reuse it, or use the process-wide {!default} pool. *)

val max_jobs : int
(** The largest pool size, 128. The [--jobs] flags of [tats], [tatsd] and
    [bench/main.exe] reject values outside [\[1, max_jobs\]]. *)

val jobs : t -> int
(** Pool size, including the submitting domain. *)

val parallel_map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] is [Array.map f xs] computed on up to
    [jobs pool] domains. [chunk] is the {e grain}: domains claim runs of
    [chunk] consecutive indices at a time (default: enough to make
    roughly [8 * jobs] grains). Larger grains amortize per-claim overhead
    for cheap [f], smaller grains balance load for expensive [f];
    [chunk:1] makes every index its own claim. The choice of [chunk] never affects the result,
    only the schedule.

    Runs inline (sequentially, on the calling domain) when the batch has
    fewer than two tasks, when [jobs pool = 1], when the pool has been
    {!shutdown}, or when called from inside another pool task. *)

val parallel_mapi : ?chunk:int -> t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [Array.mapi] counterpart of {!parallel_map}. *)

val parallel_for_reduce :
  ?chunk:int ->
  t ->
  n:int ->
  init:'acc ->
  combine:('acc -> 'a -> 'acc) ->
  (int -> 'a) ->
  'acc
(** [parallel_for_reduce pool ~n ~init ~combine body] evaluates [body i]
    for [i] in [\[0, n)] in parallel, then folds the results with
    [combine] in index order: the exact sequential
    [fold_left combine init [body 0; ...; body (n-1)]]. *)

val stats : t -> stats
(** Racy-but-monotone snapshot of the pool's counters; exact whenever no
    batch is in flight. *)

val reset_stats : t -> unit
(** Zeroes the counters. Call between batches, not during one. *)

val pp_stats : Format.formatter -> stats -> unit
(** One compact line: jobs, batches, tasks, steals, parks, and
    per-domain busy seconds. *)

val shutdown : t -> unit
(** Stops and joins the worker domains. Idempotent, and safe to call
    while a batch is in flight: shutdown queues behind the running batch,
    which {e drains normally} (its submitter gets complete, bit-identical
    results), and only then are the workers stopped. After shutdown the
    pool remains usable: batches simply run inline on the calling domain.

    @raise Invalid_argument when called from inside a pool task (a batch
    cannot deterministically outlive a runtime torn down from within
    itself). *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down, even if [f] raises. *)

(** {1 The process-wide default pool}

    Library entry points with a [?pool] parameter fall back to this shared
    pool, so a single [--jobs N] flag at the CLI/bench level parallelizes
    every workload underneath without threading a pool through each
    call. *)

val default : unit -> t
(** The shared pool, created on first use with {!default_jobs} workers
    and shut down automatically at process exit. *)

val set_default_jobs : int -> unit
(** Sets the size used by {!default}. If the default pool already exists
    at a different size it is shut down and recreated on next use. Values
    outside [\[1, max_jobs\]] are clamped. The [--jobs] flags of [tats],
    [tatsd] and [bench/main.exe] call this. *)

val default_jobs : unit -> int
(** The size {!default} has, or will be created with:
    the last {!set_default_jobs} value, else
    [Domain.recommended_domain_count ()]. *)
