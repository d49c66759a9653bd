(** Hierarchical span tracing with a Chrome [trace_event] exporter.

    The library's stages — co-synthesis iterations, scheduler steps,
    thermal inquiry solves, pool tasks — are bracketed with {!with_span}.
    Tracing is {e off} by default and every instrumentation point then
    reduces to one atomic load (a few nanoseconds, no allocation of
    spans), so the brackets live permanently on hot paths.  When enabled
    ({!start}), each domain records completed spans into its own
    domain-local buffer; {!export_chrome} merges the buffers into a JSON
    file loadable in [chrome://tracing] or Perfetto.

    Spans nest lexically per domain (a domain-local stack tracks the open
    frames), and are exported as Chrome "X" (complete) events, which nest
    by time containment within a thread id.  [tats --trace FILE] and
    [bench/main.exe --trace FILE] drive this module from the CLI. *)

type value = Str of string | Int of int | Float of float | Bool of bool
(** Span attribute values — exported under the Chrome event's [args]. *)

type span = {
  name : string;
  ts : float;  (** start, seconds since {!start} *)
  dur : float;  (** duration, seconds *)
  tid : int;  (** recording domain's id *)
  args : (string * value) list;
}

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]).  This is the clock every
    span and every wall-time counter in the library uses: unlike
    [Sys.time] it measures elapsed time rather than the process' CPU time
    summed over all domains, so per-domain timings stay additive under a
    {!Pool}. *)

val enabled : unit -> bool

val start : unit -> unit
(** Enable tracing and start a fresh trace (spans of any previous trace
    are discarded; the epoch for {!span}[.ts] is reset). *)

val stop : unit -> unit
(** Disable tracing, keeping recorded spans for export. *)

val reset : unit -> unit
(** Disable tracing and discard all recorded spans. *)

val with_span : ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] bracketed by a span.  The span is
    recorded even when [f] raises (the exception is re-raised).  When
    tracing is disabled this is exactly [f ()] after one atomic load. *)

val record_span :
  ?args:(string * value) list -> string -> start:float -> dur:float -> unit
(** [record_span name ~start ~dur] records a completed span on the calling
    domain that began at [start] ({!now}'s clock) and lasted [dur]
    seconds: one span for work timed in pieces, such as the fixed points
    of one scheduling pick, with their summed duration from the first
    one's start. The caller keeps it inside the span that encloses the
    pieces, so that spans still nest by time containment. No-op when
    tracing is disabled. *)

val add_attr : string -> value -> unit
(** Attach an attribute to the innermost open span of the calling domain
    (no-op when tracing is disabled or no span is open) — how a stage
    records its {e outcome} discovered only at the end, e.g. whether a
    co-synthesis iteration met its deadline. *)

val span_count : unit -> int
(** Completed spans recorded in the current trace, across all domains. *)

val spans : unit -> span list
(** Completed spans of the current trace, sorted by start time. *)

val to_chrome_json : unit -> string
(** The current trace as a Chrome [trace_event] JSON array. *)

val export_chrome : string -> unit
(** Write {!to_chrome_json} to a file. *)
