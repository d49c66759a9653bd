(* Hierarchical span tracing with a Chrome trace_event exporter.

   Design constraints, in decreasing order of importance:

   - Disabled is free: every entry point first reads one atomic flag and
     bails.  [with_span] costs a closure allocation plus that load — a few
     nanoseconds — so instrumentation can live permanently on hot paths
     (per scheduling step, per inquiry solve) without perturbing tier-1
     timings.  Disabled tracing allocates no spans and writes no state.

   - Domain-safe without a hot lock: every domain accumulates completed
     spans in its own domain-local buffer (registered once, under the
     global registry mutex).  Recording a span touches no shared state, so
     tracing composes with [Pool] workers; the export walks all buffers.

   - Nesting by construction: spans are recorded as Chrome "X" (complete)
     events carrying begin-timestamp and duration; per thread-id they nest
     by time containment, which the domain-local span stack guarantees. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type span = {
  name : string;
  ts : float; (* seconds since trace start *)
  dur : float;
  tid : int; (* domain id *)
  args : (string * value) list;
}

(* An open span: pushed on the domain-local stack by [with_span], filled by
   [add_attr], turned into a [span] when its thunk returns. *)
type frame = { fname : string; t0 : float; mutable fargs : (string * value) list }

type dstate = {
  tid : int;
  mutable gen : int; (* trace generation this buffer belongs to *)
  mutable stack : frame list;
  mutable spans : span list; (* completed, most recent first *)
  mutable n_spans : int;
}

let enabled_flag = Atomic.make false
let generation = Atomic.make 0

(* Wall clock for spans and for callers that need to time work spread over
   several domains ([Inquiry]'s wall-time counter, [Pool]'s busy times).
   [Unix.gettimeofday] is the only sub-microsecond clock the stdlib + unix
   give us; unlike [Sys.time] it measures elapsed wall time, not the CPU
   time of every domain in the process, which is what makes per-domain
   accounting additive under a pool. *)
let now = Unix.gettimeofday

let t0 = ref (now ())

let registry_mutex = Mutex.create ()
let registry : dstate list ref = ref []

let fresh_dstate () =
  let d =
    {
      tid = (Domain.self () :> int);
      gen = Atomic.get generation;
      stack = [];
      spans = [];
      n_spans = 0;
    }
  in
  Mutex.lock registry_mutex;
  registry := d :: !registry;
  Mutex.unlock registry_mutex;
  d

let dls : dstate Domain.DLS.key = Domain.DLS.new_key fresh_dstate

(* A buffer left over from a previous trace run is lazily cleared the first
   time its domain records into the new generation. *)
let state () =
  let d = Domain.DLS.get dls in
  let gen = Atomic.get generation in
  if d.gen <> gen then begin
    d.gen <- gen;
    d.stack <- [];
    d.spans <- [];
    d.n_spans <- 0
  end;
  d

let enabled () = Atomic.get enabled_flag

let start () =
  Atomic.incr generation;
  t0 := now ();
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let reset () =
  stop ();
  Atomic.incr generation

let record d frame =
  let t1 = now () -. !t0 in
  d.spans <-
    {
      name = frame.fname;
      ts = frame.t0;
      dur = t1 -. frame.t0;
      tid = d.tid;
      args = List.rev frame.fargs;
    }
    :: d.spans;
  d.n_spans <- d.n_spans + 1

let with_span ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let d = state () in
    let frame = { fname = name; t0 = now () -. !t0; fargs = List.rev args } in
    d.stack <- frame :: d.stack;
    let finish () =
      (match d.stack with
      | top :: rest when top == frame -> d.stack <- rest
      | _ -> (* unbalanced (exception skipped frames); drop down to ours *)
          let rec pop = function
            | top :: rest ->
                if top == frame then d.stack <- rest else pop rest
            | [] -> ()
          in
          pop d.stack);
      record d frame
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let record_span ?(args = []) name ~start ~dur =
  if Atomic.get enabled_flag then begin
    let d = state () in
    d.spans <- { name; ts = start -. !t0; dur; tid = d.tid; args } :: d.spans;
    d.n_spans <- d.n_spans + 1
  end

let add_attr key v =
  if Atomic.get enabled_flag then
    match (state ()).stack with
    | frame :: _ -> frame.fargs <- (key, v) :: frame.fargs
    | [] -> ()

let span_count () =
  Mutex.lock registry_mutex;
  let ds = !registry in
  Mutex.unlock registry_mutex;
  let gen = Atomic.get generation in
  List.fold_left (fun acc d -> if d.gen = gen then acc + d.n_spans else acc) 0 ds

let spans () =
  Mutex.lock registry_mutex;
  let ds = !registry in
  Mutex.unlock registry_mutex;
  let gen = Atomic.get generation in
  let all =
    List.concat_map (fun d -> if d.gen = gen then List.rev d.spans else []) ds
  in
  List.sort (fun a b -> compare (a.ts, a.tid) (b.ts, b.tid)) all

(* --- Chrome trace_event JSON ------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_of_value = function
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.17g" f
      else Printf.sprintf "\"%h\"" f
  | Bool b -> string_of_bool b

(* One Chrome "X" (complete) event per span; timestamps in microseconds as
   the trace_event format prescribes.  Loads in chrome://tracing and
   Perfetto. *)
let to_chrome_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  let first = ref true in
  List.iter
    (fun s ->
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"tats\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
           (json_escape s.name) (s.ts *. 1e6) (s.dur *. 1e6) s.tid);
      (match s.args with
      | [] -> ()
      | args ->
          Buffer.add_string b ",\"args\":{";
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b
                (Printf.sprintf "\"%s\":%s" (json_escape k) (json_of_value v)))
            args;
          Buffer.add_char b '}');
      Buffer.add_char b '}')
    (spans ());
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let export_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))
