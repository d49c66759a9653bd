(* Per-layer accounting for traced runs, computed in the benchmark from the
   library's existing [Trace] spans and [Metricsreg] counters.

   Self time of a span is its duration minus the spans it contains on the
   same domain (time containment per trace id). Spans are drained at
   quiescent points between rounds, so a long run never holds more than
   one round of spans in memory. *)

module Trace = Core.Trace
module Metricsreg = Core.Metricsreg

type acc = { mutable incl : float; mutable self : float; mutable calls : int }

type t = {
  by_name : (string, acc) Hashtbl.t;
  mutable adaptive_schedules : int;
      (** [List_sched.run_adaptive] calls: the first [sched.attempt] span
          (the ceiling attempt) under each parent span *)
}

let create () = { by_name = Hashtbl.create 64; adaptive_schedules = 0 }

let get t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a
  | None ->
      let a = { incl = 0.0; self = 0.0; calls = 0 } in
      Hashtbl.add t.by_name name a;
      a

(* [serve.execute] is keyed per request kind. *)
let key (s : Trace.span) =
  match (s.name, List.assoc_opt "kind" s.args) with
  | "serve.execute", Some (Trace.Str k) -> "serve.execute/" ^ k
  | name, _ -> name

let eps = 1e-7

let absorb_domain t (spans : Trace.span array) =
  Array.stable_sort
    (fun (a : Trace.span) b ->
      match Float.compare a.ts b.ts with 0 -> Float.compare b.dur a.dur | c -> c)
    spans;
  let self = Array.map (fun (s : Trace.span) -> s.dur) spans in
  (* Spans that already have a [sched.attempt] child. Every caller makes
     one run_adaptive call per enclosing span, and its attempts are that
     span's only [sched.attempt] children. *)
  let has_attempt = Array.make (Array.length spans) false in
  let contains j (s : Trace.span) =
    let p = spans.(j) in
    p.ts <= s.ts +. eps && s.ts +. s.dur <= p.ts +. p.dur +. eps
  in
  let stack = ref [] in
  Array.iteri
    (fun i (s : Trace.span) ->
      let rec pop = function
        | j :: rest when not (contains j s) -> pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with j :: _ -> self.(j) <- self.(j) -. s.dur | [] -> ());
      if s.name = "sched.attempt" then begin
        match !stack with
        | j :: _ when has_attempt.(j) -> ()
        | j :: _ ->
            has_attempt.(j) <- true;
            t.adaptive_schedules <- t.adaptive_schedules + 1
        | [] -> t.adaptive_schedules <- t.adaptive_schedules + 1
      end;
      stack := i :: !stack)
    spans;
  Array.iteri
    (fun i (s : Trace.span) ->
      let a = get t (key s) in
      a.incl <- a.incl +. s.dur;
      a.self <- a.self +. Float.max 0.0 self.(i);
      a.calls <- a.calls + 1)
    spans

(* Fold the spans recorded since the last drain into [t] and start a fresh
   trace. Call only while no span is open on any domain. *)
let drain t =
  if Trace.enabled () then begin
    let spans = Trace.spans () in
    let by_tid = Hashtbl.create 4 in
    List.iter
      (fun (s : Trace.span) ->
        Hashtbl.replace by_tid s.tid
          (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
      spans;
    Hashtbl.iter (fun _ l -> absorb_domain t (Array.of_list l)) by_tid;
    Trace.start ()
  end

let self t name = match Hashtbl.find_opt t.by_name name with Some a -> a.self | None -> 0.0
let incl t name = match Hashtbl.find_opt t.by_name name with Some a -> a.incl | None -> 0.0
let calls t name = match Hashtbl.find_opt t.by_name name with Some a -> a.calls | None -> 0

(* The repository's libraries, by span-name prefix. Bench-side brackets
   are named after the layer whose public call they time. *)
let layer_of name =
  let prefix =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  match prefix with
  | "taskgraph" | "techlib" | "floorplan" | "cosynth" | "thermal" | "linalg"
  | "sched" | "serve" | "campaign" | "util" ->
      prefix
  | "ga" | "sa" -> "floorplan"
  | "flow" -> "cosynth"
  | "inquiry" | "transient" | "gridmodel" -> "thermal"
  | "cg" | "lu" -> "linalg"
  | "online" | "dvs" | "dtm" | "periodic" | "montecarlo" | "sa_mapper" -> "sched"
  | "pool" -> "util"
  | _ -> "bench"

let self_by_layer t =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name a ->
      let l = layer_of name in
      Hashtbl.replace tbl l (a.self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
    t.by_name;
  tbl

let sum_prefixes t prefixes f =
  Hashtbl.fold
    (fun name a acc ->
      if List.exists (fun p -> String.starts_with ~prefix:p name) prefixes then acc +. f a
      else acc)
    t.by_name 0.0

(* --- bench-side brackets ------------------------------------------------ *)

(* Wall time of bench-side calls into a layer's public functions that have
   no span of their own, kept in every mode (the setup metrics need them
   untraced too) and also recorded as a span when tracing is on. *)
let brackets : (string, float) Hashtbl.t = Hashtbl.create 8
let brackets_lock = Mutex.create ()

let bracket name f =
  let t0 = Unix.gettimeofday () in
  let v = Trace.with_span name f in
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.protect brackets_lock (fun () ->
      Hashtbl.replace brackets name
        (dt +. Option.value ~default:0.0 (Hashtbl.find_opt brackets name)));
  v

let bracket_total name =
  Mutex.protect brackets_lock (fun () ->
      Option.value ~default:0.0 (Hashtbl.find_opt brackets name))

(* --- counters ----------------------------------------------------------- *)

let counter_names =
  [
    "ga.evaluations"; "flow.iterations"; "hotspot.engines_built";
    "inquiry.inquiries"; "inquiry.cache_hits"; "inquiry.fp_iterations";
    "transient.steps"; "transient.q_cache_hits"; "transient.q_cache_misses";
    "lu.factorizations"; "lu.solves"; "sched.adaptive_attempts"; "sched.steps";
    "sched.candidates"; "online.decisions"; "online.deferrals"; "pool.steals";
    "pool.parks";
  ]

type snapshot = (string * int) list

let snapshot () : snapshot =
  List.map (fun n -> (n, Metricsreg.counter_value (Metricsreg.counter n))) counter_names

let delta (a : snapshot) (b : snapshot) name = List.assoc name b - List.assoc name a
