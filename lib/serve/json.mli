(** A minimal JSON value type with a parser and a printer — the wire
    format of the {!Server} protocol, hand-rolled so the serving layer
    adds no dependencies beyond what the repo already links.

    The dialect is RFC 8259 minus two deliberate restrictions:

    - All numbers are OCaml [float]s. Integers up to 2{^53} survive the
      round trip exactly, which covers every count the protocol carries.
    - Non-finite floats have no JSON spelling; {!to_string} emits them as
      [null] (they never appear in well-formed replies — temperatures,
      latencies and counters are finite by construction).

    Printing uses the shortest [%.15g]/[%.16g]/[%.17g] form that parses
    back to the identical bit pattern, so a float that crosses the wire
    and is parsed again compares [=] to the original — the property the
    serve test suite's bit-identity checks lean on. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line, no insignificant whitespace) serialization.
    Object member order is preserved. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error, as are
    unterminated strings/structures, bad escapes, malformed numbers, and
    nesting deeper than 512 (a cheap stack-overflow guard against
    adversarial ["[[[[..."] frames — see [test_serve]'s fuzz cases). The
    error string carries a 0-based byte offset. *)

(** {1 Accessors}

    Total functions: each returns [None] rather than raising on a shape
    mismatch. *)

val mem : string -> t -> t option
(** [mem k (Obj _)] is the value bound to the {e first} occurrence of
    [k]; [None] on missing keys and non-objects. *)

val str : t -> string option
val num : t -> float option
val bool : t -> bool option
val arr : t -> t list option

val obj : t -> t option
(** The value itself when it is an [Obj]. *)

val int : t -> int option
(** A number with an exact [int] value. *)

val nat : t -> int option
(** A non-negative {!int}. *)

val float_array : t -> float array option
(** An [Arr] of numbers, as a float array; [None] on anything else. *)

(** {1 Field readers}

    The decoders of tatsd requests and campaign files: every failure reads
    [field "k": <what>]. Messages are formatted only on failure. *)

val field_error : string -> string -> ('a, string) result
(** [field_error key what] is [Error "field \"key\": what"]. *)

val field :
  ?default:'a -> string -> (t -> 'a option) -> what:string -> t -> ('a, string) result
(** [field ?default key read ~what obj] is [obj]'s member [key] read with
    [read]: [Ok default] when absent ([field "key": required] without a
    default), [field_error key what] when [read] rejects it. *)

val array :
  ?default:'a list -> string -> (t -> ('a, string) result) -> what:string -> t ->
  ('a list, string) result
(** {!field} for an array member whose items [decode] reads; the first
    item error is returned as [decode] worded it. *)
