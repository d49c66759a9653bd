(** The `tatsd` request/response protocol: typed requests, their JSON
    decoding, and the reply envelopes.

    One frame ({!Frame}) carries one JSON object. Requests:

    {v
    request    := { "kind": KIND, ["id": any], ["deadline_ms": num], ...params }
    KIND       := "ping" | "stats" | "schedule" | "inquiry"
                | "transient" | "online" | "sleep" | "shutdown"
    schedule   := "bench": "Bm1".."Bm4", ["policy": POLICY = "thermal"],
                  ["arch": "platform" | "cosynth" = "platform"],
                  ["n_pes": int = 4], HETERO
    HETERO     := ["platform": "std4" | "biglittle4" | "mixed6"],
                  CONSTRAINTS (platform architecture only)
    CONSTRAINTS := ["pins": [{"task": nat, "pe": nat}
                            |{"task": nat, "kind": nat}...]],
                   ["isolation": [{"task": nat, "class": nat}...]]
    inquiry    := "power": [num...], ["idle": [num...] = zeros],
                  ["n_pes": int = length of power]
    transient  := schedule params plus ["periods": int = 50], ["dt": num],
                  ["time_unit": num = 1e-3], ["exact": bool = false]
    online     := "bench": "Bm1".."Bm4", ["policy": OPOLICY = "thermal"],
                  ["trigger": num, reactive only],
                  ["arrivals": "zero" | "sporadic" | "trace" = "sporadic"],
                  ["seed": int = 1], ["mean_gap": num = 25],
                  ["n_pes": int = 4], HETERO
    sleep      := ["ms": num = 0]          (testing / load-generation aid)
    POLICY     := "baseline" | "h1" | "h2" | "h3" | "thermal"
    OPOLICY    := POLICY | "reactive"
    v}

    Replies are [{"ok": true, "kind": ..., "id": <echoed>, ...payload}] or
    [{"ok": false, "id": ..., "error": {"code": CODE, "message": str}}]
    with [CODE] one of [bad_request], [overloaded], [deadline],
    [shutting_down], [internal]. The [id] member, when present in the
    request, is echoed verbatim (any JSON value) so pipelining clients can
    match replies to requests.

    [deadline_ms] is the request's {e queueing budget}: if the dispatcher
    dequeues it more than that many milliseconds after admission, it is
    answered with a [deadline] error instead of being executed (the result
    would arrive too late to matter). Execution, once started, always runs
    to completion — see DESIGN.md §11 for why aborting mid-inquiry is not
    worth its complexity. *)

module Policy = Tats_sched.Policy
module Online = Tats_sched.Online
module Constraints = Tats_sched.Constraints

type arch = Platform | Cosynth

val arch_name : arch -> string

val bench_name : int -> string
(** [bench_name 0] is ["Bm1"], and so on. *)

type schedule_params = {
  bench : int;  (** benchmark index 0-3 = Bm1-Bm4 *)
  policy : Policy.t;
  arch : arch;
  n_pes : int;  (** platform width; ignored by [Cosynth] and [platform] *)
  platform : string option;
      (** builtin typed platform name ({!Tats_techlib.Catalog.platform_named});
          overrides [n_pes]; platform architecture only *)
  pins : (int * Constraints.pin) list;  (** task -> PE/kind affinities *)
  isolation : (int * int) list;  (** task -> criticality class *)
}

type transient_params = {
  sched : schedule_params;
  periods : int;
  dt : float option;  (** integration step, seconds; default period/100 *)
  time_unit : float;  (** seconds per schedule time unit *)
  exact : bool;  (** bit-exact factored stepper vs propagator fast path *)
}

type inquiry_params = {
  n_pes : int;
  power : float array;  (** per-PE dynamic power, W *)
  idle : float array;  (** per-PE idle (leakage-coupled) power, W *)
}

type online_arrivals =
  | Zero  (** every task released at t = 0 (offline-degenerate) *)
  | Sporadic  (** seeded sporadic stream ({!Tats_sched.Online.sporadic}) *)
  | Trace  (** releases from a baseline offline schedule's start times *)

val online_arrivals_name : online_arrivals -> string

type online_params = {
  o_bench : int;  (** benchmark index 0-3 = Bm1-Bm4 *)
  o_n_pes : int;
  o_policy : Online.policy;
  o_arrivals : online_arrivals;
  o_seed : int;  (** sporadic stream seed; ignored by [Zero]/[Trace] *)
  o_mean_gap : float;  (** mean sporadic inter-release gap, time units *)
  o_platform : string option;  (** builtin typed platform; overrides [o_n_pes] *)
  o_pins : (int * Constraints.pin) list;
  o_isolation : (int * int) list;
}

type kind =
  | Ping
  | Stats
  | Schedule of schedule_params
  | Inquiry of inquiry_params
  | Transient of transient_params
  | Online of online_params
  | Sleep of float  (** seconds *)
  | Shutdown

val kind_name : kind -> string

type request = {
  id : Json.t option;  (** echoed verbatim in the reply *)
  deadline_ms : float option;
  kind : kind;
}

val request : ?id:Json.t -> ?deadline_ms:float -> kind -> request

val request_of_json : Json.t -> (request, string) result
(** Decode and validate one request. Unknown kinds, missing or ill-typed
    parameters, wrong-length arrays and out-of-range values are all
    [Error] with a message naming the offending field, in the shared
    shape [field "k": <what>] of {!Json.field_error}. *)

val request_to_json : request -> Json.t
(** The client-side encoder; [request_of_json (request_to_json r) = Ok r]
    for any well-formed [r]. The one caveat: of a reactive online policy
    only the trigger travels on the wire, so round-tripping requires the
    other reactive knobs to be {!Tats_sched.Online.default_reactive}. *)

(** {1 Pins and isolation}

    The one codec of the [CONSTRAINTS] members above, shared by tatsd
    requests and campaign spec platforms
    ([Campaign.spec_of_string]): both front ends accept
    the same members and reject a malformed one with the same message. *)

val decode_constraints : Json.t -> (Constraints.spec, string) result
(** The ["pins"] and ["isolation"] members of an object; an absent member
    is the empty list. A non-array member, or an item that is not one of
    the grammar's objects with non-negative integers, is an [Error]
    naming the outer member (["pins"] or ["isolation"]). Whether tasks,
    PEs and kinds exist on the platform is {!Constraints.make}'s check. *)

val constraints_to_json : Constraints.spec -> (string * Json.t) list
(** The members {!decode_constraints} reads, [pins] then [isolation],
    each omitted when its list is empty — so an unconstrained request or
    platform keeps its historical bytes. *)

(** {1 Replies} *)

type error_code =
  | Bad_request  (** unparseable frame or invalid parameters *)
  | Overloaded  (** admission queue full — retry later, or not at all *)
  | Deadline  (** queueing budget exhausted before dispatch *)
  | Shutting_down  (** server is draining; no new work admitted *)
  | Internal  (** the handler raised; message carries the exception *)

val error_code_name : error_code -> string

val ok_reply : ?id:Json.t -> kind:string -> (string * Json.t) list -> Json.t
(** [{"ok": true, "kind": kind, ("id": id,) ...payload}] *)

val error_reply : ?id:Json.t -> error_code -> string -> Json.t
(** [{"ok": false, ("id": id,) "error": {"code": ..., "message": ...}}] *)

val reply_ok : Json.t -> bool
(** True iff the reply's ["ok"] member is [true]. *)

val reply_error : Json.t -> (string * string) option
(** [(code, message)] of an error reply; [None] for ok replies. *)
