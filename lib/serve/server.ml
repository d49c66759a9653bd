module Pool = Tats_util.Pool
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg
module Graph = Tats_taskgraph.Graph
module Benchmarks = Tats_taskgraph.Benchmarks
module Catalog = Tats_techlib.Catalog
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Constraints = Tats_sched.Constraints
module Schedule = Tats_sched.Schedule
module Metrics = Tats_sched.Metrics
module Replay = Tats_sched.Replay
module Online = Tats_sched.Online
module Flow = Tats_cosynth.Flow

let m_requests = Metricsreg.counter "serve.requests"
let m_ok = Metricsreg.counter "serve.ok"
let m_errors = Metricsreg.counter "serve.errors"
let m_overloaded = Metricsreg.counter "serve.rejected_overload"
let m_deadline = Metricsreg.counter "serve.rejected_deadline"
let m_bad_frames = Metricsreg.counter "serve.bad_frames"
let m_connections = Metricsreg.counter "serve.connections"
let m_queue_depth = Metricsreg.gauge "serve.queue_depth"
let m_latency = Metricsreg.histogram "serve.latency_s"

type config = {
  socket_path : string;
  max_queue : int;
  batch_max : int;
  max_frame : int;
}

let default_config =
  {
    socket_path = "tatsd.sock";
    max_queue = 64;
    batch_max = 8;
    max_frame = Frame.max_frame_default;
  }

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  mutable alive : bool;  (* still worth writing replies to *)
  mutable closed : bool;  (* fd released; guarded by wmutex *)
}

type job = { conn : conn; req : Protocol.request; admitted : float }

type t = {
  config : config;
  engines : Engines.t;
  listener : Unix.file_descr;
  queue : job Queue.t;  (* guarded by qmutex *)
  qmutex : Mutex.t;
  qcond : Condition.t;
  mutable stop_requested : bool;  (* guarded by qmutex *)
  stop_flag : bool Atomic.t;  (* async-signal-safe mirror *)
  cmutex : Mutex.t;
  mutable conns : conn list;  (* guarded by cmutex *)
  mutable readers : Thread.t list;  (* guarded by cmutex *)
  mutable accept_thread : Thread.t option;
  mutable dispatcher_thread : Thread.t option;
  started : float;
}

let engines t = t.engines

(* --- connection plumbing ------------------------------------------------- *)

let send conn json =
  Mutex.lock conn.wmutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.wmutex) @@ fun () ->
  if conn.alive && not conn.closed then
    try Frame.write conn.fd (Json.to_string json)
    with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false

(* Wakes a reader blocked in Frame.read without releasing the fd; the
   reader owns the close (close_conn) so the descriptor is never reused
   under a blocked read. *)
let shutdown_conn conn =
  Mutex.lock conn.wmutex;
  conn.alive <- false;
  if not conn.closed then (
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Mutex.unlock conn.wmutex

let close_conn conn =
  Mutex.lock conn.wmutex;
  if not conn.closed then begin
    conn.closed <- true;
    conn.alive <- false;
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock conn.wmutex

let prune t conn =
  let self = Thread.id (Thread.self ()) in
  Mutex.lock t.cmutex;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  t.readers <- List.filter (fun th -> Thread.id th <> self) t.readers;
  Mutex.unlock t.cmutex

(* --- request execution --------------------------------------------------- *)

let num_arr a = Json.Arr (Array.to_list (Array.map (fun f -> Json.Num f) a))

(* A request's fixed architecture: the named builtin platform, or the
   [n_pes]-wide standard one, with its library and shared facade. Decode
   already validated both; a name miss here would mean the builtin set
   changed between decode and dispatch. *)
let resolve_arch t ~n_pes name =
  let platform, hotspot =
    match name with
    | None ->
        let hotspot = Engines.platform t.engines ~n_pes in
        (Catalog.std_platform n_pes, hotspot)
    | Some name -> (
        match Catalog.platform_named name with
        | Some p -> (p, Engines.typed_platform t.engines p)
        | None -> invalid_arg (Printf.sprintf "unknown platform %S" name))
  in
  (platform, Catalog.library_for platform, hotspot)

let run_flow t (p : Protocol.schedule_params) =
  let graph = Benchmarks.load p.bench in
  match p.arch with
  | Protocol.Platform ->
      let constraints =
        { Constraints.pins = p.pins; isolation = p.isolation }
      in
      let platform, lib, hotspot = resolve_arch t ~n_pes:p.n_pes p.platform in
      ( graph,
        lib,
        Flow.run_platform ~platform ~constraints ~hotspot ~graph ~lib
          ~policy:p.policy () )
  | Protocol.Cosynth ->
      let lib = Catalog.default_library () in
      (graph, lib, Flow.run_cosynthesis ~graph ~lib ~policy:p.policy ())

let schedule_payload (p : Protocol.schedule_params) graph (o : Flow.outcome) =
  let s = o.Flow.schedule in
  [
    ("bench", Json.Str (Protocol.bench_name p.bench));
    ("policy", Json.Str (Policy.name p.policy));
    ("arch", Json.Str (Protocol.arch_name p.arch));
    ("n_pes", Json.Num (float_of_int (Schedule.n_pes s)));
    ("makespan", Json.Num s.Schedule.makespan);
    ("deadline", Json.Num (Graph.deadline graph));
    ("deadline_met", Json.Bool (Schedule.meets_deadline s));
    ("total_power", Json.Num o.Flow.row.Metrics.total_power);
    ("max_temp", Json.Num o.Flow.row.Metrics.max_temp);
    ("avg_temp", Json.Num o.Flow.row.Metrics.avg_temp);
    ("arch_cost", Json.Num o.Flow.arch_cost);
    ("outer_iterations", Json.Num (float_of_int o.Flow.outer_iterations));
    ("pe_powers", num_arr o.Flow.report.Metrics.pe_powers);
    ("block_temps", num_arr o.Flow.report.Metrics.block_temps);
  ]
  @ match p.platform with
    | None -> []
    | Some name -> [ ("platform", Json.Str name) ]

let uptime t = Unix.gettimeofday () -. t.started

let queue_depth t =
  Mutex.lock t.qmutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.qmutex;
  n

let stats_payload t =
  let es = Engines.stats t.engines in
  let c m = Json.Num (float_of_int (Metricsreg.counter_value m)) in
  [
    ("uptime_s", Json.Num (uptime t));
    ("jobs", Json.Num (float_of_int (Pool.jobs (Pool.default ()))));
    ("queue_depth", Json.Num (float_of_int (queue_depth t)));
    ("engines", Json.Num (float_of_int es.Engines.engines));
    ( "fingerprints",
      Json.Arr (List.map (fun s -> Json.Str s) (Engines.fingerprints t.engines))
    );
    ("inquiries", Json.Num (float_of_int es.Engines.inquiries));
    ("cache_hits", Json.Num (float_of_int es.Engines.cache_hits));
    ("hit_rate", Json.Num (Engines.hit_rate es));
    ("requests", c m_requests);
    ("ok", c m_ok);
    ("errors", c m_errors);
    ("rejected_overload", c m_overloaded);
    ("rejected_deadline", c m_deadline);
  ]

let handle t (req : Protocol.request) =
  match req.Protocol.kind with
  | Protocol.Ping ->
      [ ("pong", Json.Bool true); ("uptime_s", Json.Num (uptime t)) ]
  | Protocol.Stats -> stats_payload t
  | Protocol.Shutdown -> [ ("stopping", Json.Bool true) ]
  | Protocol.Sleep s ->
      if s > 0.0 then Unix.sleepf s;
      [ ("slept_s", Json.Num s) ]
  | Protocol.Schedule p ->
      let graph, _lib, o = run_flow t p in
      schedule_payload p graph o
  | Protocol.Inquiry p ->
      let hotspot = Engines.platform t.engines ~n_pes:p.n_pes in
      let temps =
        Hotspot.inquire_with_leakage hotspot ~dynamic:p.power ~idle:p.idle
      in
      let max_t = Array.fold_left Float.max neg_infinity temps in
      let sum = Array.fold_left ( +. ) 0.0 temps in
      [
        ("n_pes", Json.Num (float_of_int p.n_pes));
        ("temps", num_arr temps);
        ("max_temp", Json.Num max_t);
        ("avg_temp", Json.Num (sum /. float_of_int (Array.length temps)));
      ]
  | Protocol.Online p ->
      let graph = Benchmarks.load p.Protocol.o_bench in
      let constraints =
        {
          Constraints.pins = p.Protocol.o_pins;
          isolation = p.Protocol.o_isolation;
        }
      in
      let platform, lib, hotspot =
        resolve_arch t ~n_pes:p.Protocol.o_n_pes p.Protocol.o_platform
      in
      let arrivals =
        match p.Protocol.o_arrivals with
        | Protocol.Zero -> Flow.Release_zero
        | Protocol.Sporadic -> Flow.Release_sporadic p.Protocol.o_seed
        | Protocol.Trace -> Flow.Release_trace
      in
      let o =
        Flow.run_online ~platform ~constraints
          ~hotspot ~mean_gap:p.Protocol.o_mean_gap ~arrivals ~graph ~lib
          ~policy:p.Protocol.o_policy ()
      in
      let s = o.Flow.online.Online.schedule in
      let st = o.Flow.online.Online.stats in
      let sc = o.Flow.score in
      [
        ("bench", Json.Str (Protocol.bench_name p.Protocol.o_bench));
        ("policy", Json.Str (Online.policy_name p.Protocol.o_policy));
        ( "arrivals",
          Json.Str (Protocol.online_arrivals_name p.Protocol.o_arrivals) );
        ("seed", Json.Num (float_of_int p.Protocol.o_seed));
        ("mean_gap", Json.Num p.Protocol.o_mean_gap);
        ("n_pes", Json.Num (float_of_int (Schedule.n_pes s)));
        ("makespan", Json.Num s.Schedule.makespan);
        ("deadline", Json.Num (Graph.deadline graph));
        ("deadline_met", Json.Bool (Schedule.meets_deadline s));
        ("events", Json.Num (float_of_int st.Online.events));
        ("decisions", Json.Num (float_of_int st.Online.decisions));
        ("candidates", Json.Num (float_of_int st.Online.candidates));
        ("deferrals", Json.Num (float_of_int st.Online.deferrals));
        ("online_makespan", Json.Num sc.Online.online_makespan);
        ("clairvoyant_makespan", Json.Num sc.Online.clairvoyant_makespan);
        ("makespan_ratio", Json.Num sc.Online.makespan_ratio);
        ("online_peak", Json.Num sc.Online.online_peak);
        ("clairvoyant_peak", Json.Num sc.Online.clairvoyant_peak);
        ("peak_ratio", Json.Num sc.Online.peak_ratio);
        ("mimicked_makespan", Json.Bool sc.Online.mimicked_makespan);
        ("mimicked_peak", Json.Bool sc.Online.mimicked_peak);
      ]
      @ (match p.Protocol.o_platform with
        | None -> []
        | Some name -> [ ("platform", Json.Str name) ])
  | Protocol.Transient tp ->
      let graph, lib, o = run_flow t tp.Protocol.sched in
      let profile =
        Replay.of_schedule ~time_unit:tp.Protocol.time_unit ~lib
          o.Flow.schedule
      in
      let peaks =
        Replay.peaks ~periods:tp.Protocol.periods ?dt:tp.Protocol.dt
          ~exact:tp.Protocol.exact ~hotspot:o.Flow.hotspot profile
      in
      schedule_payload tp.Protocol.sched graph o
      @ [
          ("periods", Json.Num (float_of_int tp.Protocol.periods));
          ("time_unit", Json.Num tp.Protocol.time_unit);
          ("exact", Json.Bool tp.Protocol.exact);
          ("peaks", num_arr peaks);
          ( "peak_max",
            Json.Num (Array.fold_left Float.max neg_infinity peaks) );
        ]

let execute t (job : job) =
  let req = job.req in
  let reply =
    Trace.with_span "serve.execute"
      ~args:[ ("kind", Trace.Str (Protocol.kind_name req.Protocol.kind)) ]
    @@ fun () ->
    match handle t req with
    | payload ->
        Protocol.ok_reply ?id:req.Protocol.id
          ~kind:(Protocol.kind_name req.Protocol.kind)
          payload
    (* Constraint problems are the client's spec, not server failures. *)
    | exception Constraints.Invalid msg ->
        Protocol.error_reply ?id:req.Protocol.id Protocol.Bad_request msg
    | exception Constraints.Infeasible msg ->
        Protocol.error_reply ?id:req.Protocol.id Protocol.Bad_request msg
    | exception e ->
        Protocol.error_reply ?id:req.Protocol.id Protocol.Internal
          (Printexc.to_string e)
  in
  (reply, Unix.gettimeofday ())

(* --- admission and dispatch ---------------------------------------------- *)

let admit t conn (req : Protocol.request) =
  let now = Unix.gettimeofday () in
  Mutex.lock t.qmutex;
  if t.stop_requested then begin
    Mutex.unlock t.qmutex;
    Metricsreg.incr m_errors;
    send conn
      (Protocol.error_reply ?id:req.Protocol.id Protocol.Shutting_down
         "server is draining")
  end
  else if Queue.length t.queue >= t.config.max_queue then begin
    Mutex.unlock t.qmutex;
    Metricsreg.incr m_overloaded;
    Metricsreg.incr m_errors;
    send conn
      (Protocol.error_reply ?id:req.Protocol.id Protocol.Overloaded
         (Printf.sprintf "admission queue is full (%d in flight)"
            t.config.max_queue))
  end
  else begin
    Queue.push { conn; req; admitted = now } t.queue;
    Metricsreg.set_gauge m_queue_depth (float_of_int (Queue.length t.queue));
    Condition.signal t.qcond;
    Mutex.unlock t.qmutex
  end

let stop t =
  Atomic.set t.stop_flag true;
  Mutex.lock t.qmutex;
  t.stop_requested <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex

let signal_stop t = Atomic.set t.stop_flag true

let stopping t = Atomic.get t.stop_flag

let dispatcher t =
  let pool = Pool.default () in
  let rec loop () =
    Mutex.lock t.qmutex;
    while Queue.is_empty t.queue && not t.stop_requested do
      Condition.wait t.qcond t.qmutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.qmutex (* drained: exit *)
    else begin
      let batch = ref [] in
      while
        (not (Queue.is_empty t.queue))
        && List.length !batch < t.config.batch_max
      do
        batch := Queue.pop t.queue :: !batch
      done;
      Metricsreg.set_gauge m_queue_depth (float_of_int (Queue.length t.queue));
      Mutex.unlock t.qmutex;
      let jobs = List.rev !batch in
      let now = Unix.gettimeofday () in
      let expired, live =
        List.partition
          (fun job ->
            match job.req.Protocol.deadline_ms with
            | Some d -> (now -. job.admitted) *. 1000.0 > d
            | None -> false)
          jobs
      in
      List.iter
        (fun job ->
          Metricsreg.incr m_deadline;
          Metricsreg.incr m_errors;
          send job.conn
            (Protocol.error_reply ?id:job.req.Protocol.id Protocol.Deadline
               "queueing budget exhausted before dispatch"))
        expired;
      let live = Array.of_list live in
      let results = Pool.parallel_map pool (execute t) live in
      Array.iteri
        (fun i (reply, finished) ->
          let job = live.(i) in
          Metricsreg.observe m_latency (finished -. job.admitted);
          if Protocol.reply_ok reply then Metricsreg.incr m_ok
          else Metricsreg.incr m_errors;
          send job.conn reply)
        results;
      loop ()
    end
  in
  loop ()

(* --- reading ------------------------------------------------------------- *)

let handle_incoming t conn (req : Protocol.request) =
  match req.Protocol.kind with
  (* Control plane: answered inline by the reader, never queued. *)
  | Protocol.Ping | Protocol.Stats ->
      let reply, _ = execute t { conn; req; admitted = Unix.gettimeofday () } in
      if Protocol.reply_ok reply then Metricsreg.incr m_ok
      else Metricsreg.incr m_errors;
      send conn reply
  | Protocol.Shutdown ->
      Metricsreg.incr m_ok;
      send conn
        (Protocol.ok_reply ?id:req.Protocol.id ~kind:"shutdown"
           [ ("stopping", Json.Bool true) ]);
      stop t
  | Protocol.Schedule _ | Protocol.Inquiry _ | Protocol.Transient _
  | Protocol.Online _ | Protocol.Sleep _ ->
      admit t conn req

let reader t conn =
  let rec loop () =
    match Frame.read ~max_frame:t.config.max_frame conn.fd with
    | Error Frame.Eof -> ()
    | Error Frame.Truncated -> Metricsreg.incr m_bad_frames
    | Error (Frame.Oversized n) ->
        (* The oversized body was never consumed, so the stream cannot be
           resynchronized: answer and drop the connection. *)
        Metricsreg.incr m_bad_frames;
        Metricsreg.incr m_errors;
        send conn
          (Protocol.error_reply Protocol.Bad_request
             (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
                t.config.max_frame))
    | Ok payload -> (
        Metricsreg.incr m_requests;
        match Json.of_string payload with
        | Error msg ->
            Metricsreg.incr m_errors;
            send conn
              (Protocol.error_reply Protocol.Bad_request
                 ("invalid JSON: " ^ msg));
            loop ()
        | Ok json -> (
            let id =
              match json with Json.Obj _ -> Json.mem "id" json | _ -> None
            in
            match Protocol.request_of_json json with
            | Error msg ->
                Metricsreg.incr m_errors;
                send conn (Protocol.error_reply ?id Protocol.Bad_request msg);
                loop ()
            | Ok req ->
                handle_incoming t conn req;
                loop ()))
  in
  (try loop () with _ -> ());
  close_conn conn;
  prune t conn

(* --- lifecycle ----------------------------------------------------------- *)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (match Unix.select [ t.listener ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.listener with
          | fd, _ ->
              Metricsreg.incr m_connections;
              let conn =
                { fd; wmutex = Mutex.create (); alive = true; closed = false }
              in
              Mutex.lock t.cmutex;
              t.conns <- conn :: t.conns;
              t.readers <- Thread.create (reader t) conn :: t.readers;
              Mutex.unlock t.cmutex
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (* A signal handler can only flip the atomic (signal_stop); complete the
     mutexed half of the stop here so the dispatcher wakes and drains. *)
  stop t

let create config =
  if config.max_queue < 1 then invalid_arg "Server.create: max_queue < 1";
  if config.batch_max < 1 then invalid_arg "Server.create: batch_max < 1";
  if config.max_frame < 4 then invalid_arg "Server.create: max_frame < 4";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listener (Unix.ADDR_UNIX config.socket_path);
     Unix.listen listener 64
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      config;
      engines = Engines.create ();
      listener;
      queue = Queue.create ();
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      stop_requested = false;
      stop_flag = Atomic.make false;
      cmutex = Mutex.create ();
      conns = [];
      readers = [];
      accept_thread = None;
      dispatcher_thread = None;
      started = Unix.gettimeofday ();
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.dispatcher_thread <- Some (Thread.create dispatcher t);
  t

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (match t.dispatcher_thread with Some th -> Thread.join th | None -> ());
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (try Unix.unlink t.config.socket_path
   with Unix.Unix_error _ | Sys_error _ -> ());
  Mutex.lock t.cmutex;
  let conns = t.conns and readers = t.readers in
  Mutex.unlock t.cmutex;
  List.iter shutdown_conn conns;
  List.iter Thread.join readers

let stop_and_wait t =
  stop t;
  wait t
