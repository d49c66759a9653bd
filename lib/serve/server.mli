(** The [tatsd] server core: a Unix-domain-socket listener dispatching
    {!Protocol} requests onto the process-wide domain pool.

    {1 Architecture}

    Three kinds of threads cooperate (all plain [Thread.t] — the domains
    stay inside {!Tats_util.Pool}):

    - an {e accept} thread [select]s on the listener with a short timeout
      so it can poll the stop flag, and spawns one reader per connection;
    - one {e reader} thread per connection decodes frames and requests.
      Control-plane kinds ([ping], [stats], [shutdown]) are answered
      inline; work-plane kinds ([schedule], [inquiry], [transient],
      [sleep]) go through admission control — a bounded queue; a full
      queue answers [overloaded] immediately rather than stalling the
      connection (the client knows {e now} and can back off);
    - a single {e dispatcher} thread dequeues up to [batch_max] admitted
      requests at a time and executes the batch with one
      {!Tats_util.Pool.parallel_map} call, so concurrent requests use the
      pool's domains while library-internal pool calls degrade to inline
      (nested-call contract). Being the pool's only client, the dispatcher
      never hits the cross-domain batch-serialization path.

    A request's [deadline_ms] is its {e queueing budget}: the dispatcher
    checks it at dequeue time and answers [deadline] instead of executing
    work whose result would arrive too late. Execution is never aborted
    mid-flight.

    Replies can be produced by the reader (errors) and the dispatcher
    (results) concurrently, so each connection carries a write mutex;
    frames from interleaved requests are matched by the echoed [id].

    {1 Shutdown}

    {!stop} is safe from any thread (including a reader handling a
    [shutdown] request): it only flips flags and signals. The drain then
    happens in {!wait}: stop accepting, let the dispatcher {e execute}
    everything already admitted (work admitted is work answered), reject
    new arrivals with [shutting_down], close the connections, join every
    thread and unlink the socket. *)

type config = {
  socket_path : string;
  max_queue : int;  (** admission-queue bound; beyond it, [overloaded] *)
  batch_max : int;  (** max requests executed per pool batch *)
  max_frame : int;  (** per-frame byte cap, see {!Frame.read} *)
}

val default_config : config
(** [{socket_path = "tatsd.sock"; max_queue = 64; batch_max = 8;
    max_frame = Frame.max_frame_default}] *)

type t

val create : config -> t
(** Binds and listens on [config.socket_path] (removing a stale socket
    file first), starts the accept and dispatcher threads, and returns.
    Raises [Unix.Unix_error] when the socket cannot be bound. *)

val engines : t -> Engines.t
(** The server's warmed-engine registry (for in-process inspection). *)

val stop : t -> unit
(** Request shutdown: stop admitting, wake everything. Idempotent,
    non-blocking, callable from any thread. *)

val signal_stop : t -> unit
(** The async-signal-safe half of {!stop}: flips the atomic stop flag and
    nothing else (no mutex — safe inside a [Sys.Signal_handle]). The
    accept thread notices within its 0.2 s poll and completes the stop.
    [tatsd]'s SIGINT/SIGTERM handlers call this. *)

val stopping : t -> bool

val stop_and_wait : t -> unit
(** [stop] followed by [wait] — the in-process test/bench teardown. *)

val wait : t -> unit
(** Blocks until the server has fully drained after a {!stop}: joins the
    accept thread, lets the dispatcher finish the admitted queue, closes
    every connection, joins the readers and unlinks the socket. *)
