(* The benchmark's four workloads. Each is built from the run's seed by
   [setup] (timed as set-up) and then driven in rounds by the timed
   window; a round is one op, or one batch of ops that ends with nothing
   in flight, so traced runs can drain spans between rounds. The comment
   above each workload is its definition: why it exists, what one op is
   and which layers it loads. *)

open Core

type quality = {
  gain_max : float;  (** mean max-temperature reduction, °C *)
  gain_avg : float;  (** mean average-temperature reduction, °C *)
  makespan_ratio : float;  (** mean makespan over the reference makespan *)
}

type instance = {
  round : Recorder.t -> unit;
  settle : Recorder.t -> unit;
      (** bench-side work after each round (output checks, bookkeeping),
          outside the timed busy time *)
  at_boundary : unit -> bool;
      (** true when the ops so far form whole passes over the op set *)
  mark : unit -> unit;  (** start of a timed window: reset window-local stats *)
  check : Recorder.t -> unit;  (** output checks after the window *)
  quality : unit -> quality;
  layer_extras : Layers.t -> (string * float) list;
      (** per-layer metrics only this workload can compute *)
  info : scale:float -> (string * float) list;
      (** extra run information; [scale] converts host times to the
          reference speed *)
  teardown : unit -> unit;
}

type workload = { name : string; setup : seed:int -> corrupt:bool -> instance }

(* --- shared helpers ------------------------------------------------------ *)

(* Scratch space inside the checkout; removed at teardown. *)
let scratch_dir () =
  let d = Filename.concat "_perfbench" (string_of_int (Unix.getpid ())) in
  Fsio.remove_recursive d;
  Fsio.mkdir_p d;
  d

let read_file path =
  match Fsio.read_file path with
  | Some s -> s
  | None -> failwith ("perfbench: cannot read reference " ^ path)

(* A corrupted reference differs from the real one in its last bit. *)
let corrupt_float corrupt x = if corrupt then Float.succ x else x

let h3 = Policy.Power_aware Policy.Min_task_energy

let no_extras _ = []
let no_info ~scale:_ = []

(* Accumulates (reference, thermal-aware) pairs into the quality means. *)
type pairs = {
  mutable d_max : float list;
  mutable d_avg : float list;
  mutable ratio : float list;
}

let pairs () = { d_max = []; d_avg = []; ratio = [] }

let add_pair p ~ref_max ~ref_avg ~ref_makespan ~max ~avg ~makespan =
  p.d_max <- (ref_max -. max) :: p.d_max;
  p.d_avg <- (ref_avg -. avg) :: p.d_avg;
  p.ratio <- (makespan /. ref_makespan) :: p.ratio

let quality_of p =
  let mean l = if l = [] then nan else Stats.mean (Array.of_list l) in
  { gain_max = mean p.d_max; gain_avg = mean p.d_avg; makespan_ratio = mean p.ratio }

(* --- paper-tables -------------------------------------------------------- *)

(* Why: the paper's own artefact, Tables 1-3, cell by cell through Flow
   with a cold Hotspot per cell. Loads taskgraph, techlib, floorplan (Ga),
   cosynth (Alloc, the requirement loop), sched (the run_adaptive
   bisection), thermal (the Inquiry fixed point) and linalg; no serve,
   campaign or Transient. One op is one cell: 4 benchmarks x {baseline,
   h1, h2, h3, thermal} x {co-synthesis, platform}, pool jobs 1, in a
   seeded order per pass. Every pass renders the tables, which must equal
   test/goldens/tables.golden. *)
let paper_tables =
  let setup ~seed ~corrupt =
    Pool.set_default_jobs 1;
    let graphs = Layers.bracket "taskgraph.load" (fun () -> Array.init 4 Benchmarks.load) in
    let cos_lib, plat_lib =
      Layers.bracket "techlib.catalog" (fun () ->
          (Catalog.default_library (), Catalog.platform_library ()))
    in
    let golden = read_file (Filename.concat (Filename.concat "test" "goldens") "tables.golden") in
    let golden =
      if corrupt then String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) golden
      else golden
    in
    let cells =
      Array.of_list
        (List.concat_map
           (fun b ->
             List.concat_map
               (fun p -> [ (b, p, Experiments.Cosynthesis); (b, p, Experiments.Platform) ])
               Policy.all)
           [ 0; 1; 2; 3 ])
    in
    let n = Array.length cells in
    let rng = Rng.create seed in
    let order = Array.init n Fun.id in
    let pos = ref 0 in
    let rows : (Metrics.row * float) option array = Array.make n None in
    let last = ref (pairs ()) in
    let find b p arch =
      let rec go i =
        let b', p', a' = cells.(i) in
        if b = b' && p = p' && a' = arch then i else go (i + 1)
      in
      match rows.(go 0) with Some r -> r | None -> failwith "perfbench: missing cell"
    in
    let render () =
      let name b = Benchmarks.descriptors.(b).Benchmarks.bench_name in
      let table1 =
        List.concat_map
          (fun b ->
            List.map
              (fun policy ->
                {
                  Experiments.bench = name b;
                  policy;
                  cosynth = fst (find b policy Experiments.Cosynthesis);
                  platform = fst (find b policy Experiments.Platform);
                })
              [
                Policy.Baseline;
                Policy.Power_aware Policy.Min_task_power;
                Policy.Power_aware Policy.Min_pe_average_power;
                h3;
              ])
          [ 0; 1; 2; 3 ]
      in
      let versus arch =
        List.map
          (fun b ->
            {
              Experiments.bench = name b;
              power = fst (find b h3 arch);
              thermal = fst (find b Policy.Thermal_aware arch);
            })
          [ 0; 1; 2; 3 ]
      in
      let table2 = versus Experiments.Cosynthesis and table3 = versus Experiments.Platform in
      let p = pairs () in
      List.iter
        (fun arch ->
          List.iter
            (fun b ->
              let (r : Metrics.row), ms = find b h3 arch in
              let (t : Metrics.row), tms = find b Policy.Thermal_aware arch in
              add_pair p ~ref_max:r.max_temp ~ref_avg:r.avg_temp ~ref_makespan:ms
                ~max:t.max_temp ~avg:t.avg_temp ~makespan:tms)
            [ 0; 1; 2; 3 ])
        [ Experiments.Cosynthesis; Experiments.Platform ];
      last := p;
      String.concat "\n"
        [
          Report.table1 table1;
          Report.table2 table2;
          Report.table3 table3;
          Report.shape_checks (Experiments.shape_checks ~table1 ~table2 ~table3);
        ]
    in
    let round r =
      if !pos = 0 then Rng.shuffle rng order;
      let c = order.(!pos) in
      let b, policy, arch = cells.(c) in
      let graph = graphs.(b) in
      ignore
        (Recorder.op ~kind:c r (fun () ->
             let o =
               match arch with
               | Experiments.Cosynthesis -> Flow.run_cosynthesis ~graph ~lib:cos_lib ~policy ()
               | Experiments.Platform -> Flow.run_platform ~graph ~lib:plat_lib ~policy ()
             in
             rows.(c) <- Some (o.Flow.row, o.Flow.schedule.Schedule.makespan);
             true)
          : bool);
      pos := (!pos + 1) mod n
    in
    (* The whole pass fails when the rendered tables drift from the
       committed golden. *)
    let settle r =
      if !pos = 0 then begin
        let same = match render () with s -> s = golden | exception _ -> false in
        if not same then Recorder.fail r n;
        Array.fill rows 0 n None
      end
    in
    {
      round;
      settle;
      at_boundary = (fun () -> !pos = 0);
      mark = ignore;
      check = (fun r -> if Recorder.attempted r < n then Recorder.fail r n);
      quality = (fun () -> quality_of !last);
      layer_extras = no_extras;
      info = no_info;
      teardown = ignore;
    }
  in
  { name = "paper-tables"; setup }

(* --- tatsd-mix ----------------------------------------------------------- *)

(* Why: the serving path. One op is one request. An in-process Server on
   a socket in _perfbench/ takes a closed loop from 2 client connections,
   one thread each, in a domain of their own. Each round a client sends 50
   requests: 5 platform schedule requests (Bm1-Bm4 x 5 policies, dealt
   from a shuffled deck) and 45 inquiry requests (70% from 32 recurring
   power vectors, 30% fresh ones that miss the cache). Engines and caches
   are warmed in set-up. Loads Frame/Json/Protocol, admission and pool
   dispatch (jobs 2) and the shared warm Engines; almost no engine builds
   or Ga. A codec or dispatch change that helps inquiries but stalls
   schedules (head-of-line blocking) shows in the tail. A seeded 1-in-20
   sample of replies must be bit-equal to direct Hotspot and Flow calls. *)
let tatsd_mix =
  let module Server = Serve.Server in
  let module Client = Serve.Client in
  let module Protocol = Serve.Protocol in
  let module Engines = Serve.Engines in
  let module Json = Serve.Json in
  let n_clients = 2 and per_round = 50 and schedules_per_round = 5 in
  let combos = Array.of_list (List.concat_map (fun b -> List.map (fun p -> (b, p)) Policy.all) [ 0; 1; 2; 3 ]) in
  let schedule_req (b, policy) =
    Protocol.request
      (Protocol.Schedule
         {
           Protocol.bench = b;
           policy;
           arch = Protocol.Platform;
           n_pes = 4;
           platform = None;
           pins = [];
           isolation = [];
         })
  in
  let inquiry_req power =
    Protocol.request (Protocol.Inquiry { Protocol.n_pes = 4; power; idle = Array.make 4 0.6 })
  in
  let draw_power rng = Array.init 4 (fun _ -> Rng.uniform rng 0.3 1.5) in
  let setup ~seed ~corrupt =
    Pool.set_default_jobs 2;
    let dir = scratch_dir () in
    let server =
      Server.create { Server.default_config with Server.socket_path = Filename.concat dir "tatsd.sock" }
    in
    let engines = Server.engines server in
    ignore (Hotspot.inquiry (Engines.platform engines ~n_pes:4) : Inquiry.t);
    let clients =
      Array.init n_clients (fun _ -> Client.connect (Filename.concat dir "tatsd.sock"))
    in
    let rng = Rng.create seed in
    (* Power vectors that recur (cache hits) next to fresh ones (misses). *)
    let repeated = Array.init 32 (fun _ -> draw_power rng) in
    (* Warm-up: every schedule combination once, so the timed window sees
       warm engines and caches. *)
    Array.iter
      (fun c ->
        match Client.request clients.(0) (schedule_req c) with
        | Ok reply when Protocol.reply_ok reply -> ()
        | _ -> failwith "perfbench: warm-up schedule request failed")
      combos;
    let client_rngs = Array.init n_clients (fun i -> Rng.derive seed (i + 1)) in
    let combo_orders = Array.init n_clients (fun _ -> Array.copy combos) in
    let combo_pos = Array.make n_clients 0 in
    let next_combo ci =
      if combo_pos.(ci) = 0 then Rng.shuffle client_rngs.(ci) combo_orders.(ci);
      let c = combo_orders.(ci).(combo_pos.(ci)) in
      combo_pos.(ci) <- (combo_pos.(ci) + 1) mod Array.length combos;
      c
    in
    let round_requests ci =
      let rng = client_rngs.(ci) in
      let reqs =
        Array.init per_round (fun k ->
            if k < schedules_per_round then `Schedule (next_combo ci)
            else if Rng.float rng 1.0 < 0.7 then `Inquiry (Rng.pick rng repeated)
            else `Inquiry (draw_power rng))
      in
      Rng.shuffle rng reqs;
      reqs
    in
    (* Window-local state. *)
    let lock = Mutex.create () in
    let inquiry_lat = Recorder.create () |> ref in
    let depth_max = ref 0.0 in
    let codec_s = ref 0.0 and codec_n = ref 0 in
    let rtt_s = ref 0.0 and rtt_n = ref 0 in
    let engine0 = ref (Engines.stats engines) in
    let samples = ref [] in
    let served = Hashtbl.create 32 in
    let depth = Metricsreg.gauge "serve.queue_depth" in
    let mark () =
      inquiry_lat := Recorder.create ();
      depth_max := 0.0;
      codec_s := 0.0;
      codec_n := 0;
      rtt_s := 0.0;
      rtt_n := 0;
      engine0 := Engines.stats engines
    in
    let client_body (r, ci, reqs, replies) =
      let c = clients.(ci) in
      Array.iteri
        (fun k kind ->
          let req =
            match kind with
            | `Schedule combo -> schedule_req combo
            | `Inquiry power -> inquiry_req power
          in
          let t0 = Unix.gettimeofday () in
          let reply = Client.request c req in
          let dt = Unix.gettimeofday () -. t0 in
          let ok = match reply with Ok j -> Protocol.reply_ok j | Error _ -> false in
          Recorder.add r ~latency:dt ~ok;
          let d = Metricsreg.gauge_value depth in
          Mutex.protect lock (fun () ->
              if d > !depth_max then depth_max := d;
              rtt_s := !rtt_s +. dt;
              incr rtt_n;
              match (kind, reply) with
              | `Inquiry _, _ -> Recorder.add !inquiry_lat ~latency:dt ~ok
              | `Schedule combo, Ok j ->
                  if not (Hashtbl.mem served combo) then Hashtbl.replace served combo j
              | `Schedule _, Error _ -> ());
          replies.(k) <- (req, reply))
        reqs
    in
    let last_replies = ref [||] in
    let round r =
      let work =
        Array.init n_clients (fun ci ->
            let reqs = round_requests ci in
            (r, ci, reqs, Array.make (Array.length reqs) (Protocol.request Protocol.Ping, Error "")))
      in
      (* The clients run in a domain of their own, so they do not queue
         behind the server's threads for the main domain's runtime lock. *)
      Domain.join
        (Domain.spawn (fun () ->
             let threads = Array.map (Thread.create client_body) work in
             Array.iter Thread.join threads));
      last_replies := Array.concat (Array.to_list (Array.map (fun (_, _, _, replies) -> replies) work))
    in
    let settle _ =
      (* A seeded sample of replies is kept for the output check. *)
      Array.iter
        (fun (req, reply) ->
          match reply with
          | Ok j when Rng.int rng 20 = 0 -> samples := (req, j) :: !samples
          | _ -> ())
        !last_replies;
      if Trace.enabled () then
        (* The codec cost of the same requests and replies, timed alone. *)
        Array.iter
          (fun (req, reply) ->
            let t0 = Unix.gettimeofday () in
            let decoded = Json.of_string (Json.to_string (Protocol.request_to_json req)) in
            ignore (Result.map Protocol.request_of_json decoded);
            (match reply with
            | Ok j -> ignore (Json.of_string (Json.to_string j))
            | Error _ -> ());
            codec_s := !codec_s +. (Unix.gettimeofday () -. t0);
            incr codec_n)
          !last_replies
    in
    let check r =
      let reference = Engines.platform (Engines.create ()) ~n_pes:4 in
      let flows = Hashtbl.create 32 in
      let num j k = Option.bind (Json.mem k j) Json.num in
      let arr j k = Option.bind (Json.mem k j) Json.float_array in
      let bad = ref 0 in
      List.iter
        (fun ((req : Protocol.request), reply) ->
          let same =
            match req.Protocol.kind with
            | Protocol.Inquiry p ->
                let direct =
                  Hotspot.inquire_with_leakage reference ~dynamic:p.Protocol.power ~idle:p.Protocol.idle
                in
                let direct = Array.map (corrupt_float corrupt) direct in
                arr reply "temps" = Some direct
            | Protocol.Schedule p ->
                let key = (p.Protocol.bench, p.Protocol.policy) in
                let o =
                  match Hashtbl.find_opt flows key with
                  | Some o -> o
                  | None ->
                      let o =
                        Flow.run_platform ~graph:(Benchmarks.load p.Protocol.bench)
                          ~lib:(Catalog.platform_library ()) ~policy:p.Protocol.policy ()
                      in
                      Hashtbl.add flows key o;
                      o
                in
                num reply "makespan" = Some (corrupt_float corrupt o.Flow.schedule.Schedule.makespan)
                && num reply "total_power" = Some o.Flow.row.Metrics.total_power
                && num reply "max_temp" = Some o.Flow.row.Metrics.max_temp
                && num reply "avg_temp" = Some o.Flow.row.Metrics.avg_temp
                && arr reply "pe_powers" = Some o.Flow.report.Metrics.pe_powers
                && arr reply "block_temps" = Some o.Flow.report.Metrics.block_temps
            | _ -> false
          in
          if not same then incr bad)
        !samples;
      if !samples = [] then incr bad;
      Recorder.fail r !bad
    in
    let quality () =
      let p = pairs () in
      let num j k = Option.value ~default:nan (Option.bind (Serve.Json.mem k j) Serve.Json.num) in
      List.iter
        (fun b ->
          match (Hashtbl.find_opt served (b, h3), Hashtbl.find_opt served (b, Policy.Thermal_aware)) with
          | Some r, Some t ->
              add_pair p ~ref_max:(num r "max_temp") ~ref_avg:(num r "avg_temp")
                ~ref_makespan:(num r "makespan") ~max:(num t "max_temp") ~avg:(num t "avg_temp")
                ~makespan:(num t "makespan")
          | _ -> ())
        [ 0; 1; 2; 3 ];
      quality_of p
    in
    let layer_extras (l : Layers.t) =
      let lat = Metricsreg.summary (Metricsreg.histogram "serve.latency_s") in
      let per_request total = if lat.Metricsreg.count = 0 then 0.0 else total /. float_of_int lat.Metricsreg.count in
      let execute = Layers.incl l "serve.execute/inquiry" +. Layers.incl l "serve.execute/schedule" in
      let exec_us k =
        let c = Layers.calls l ("serve.execute/" ^ k) in
        if c = 0 then 0.0 else 1e6 *. Layers.incl l ("serve.execute/" ^ k) /. float_of_int c
      in
      let rtt_mean = if !rtt_n = 0 then 0.0 else !rtt_s /. float_of_int !rtt_n in
      let e1 = Engines.stats engines in
      let inq = e1.Engines.inquiries - !engine0.Engines.inquiries in
      let hits = e1.Engines.cache_hits - !engine0.Engines.cache_hits in
      [
        ("serve.queue_us", 1e6 *. per_request (lat.Metricsreg.sum -. execute));
        ("serve.queue_depth_max", !depth_max);
        ("serve.execute_us.inquiry", exec_us "inquiry");
        ("serve.execute_us.schedule", exec_us "schedule");
        ("serve.engine_hit_ratio", if inq = 0 then 0.0 else float_of_int hits /. float_of_int inq);
        ("serve.codec_us", if !codec_n = 0 then 0.0 else 1e6 *. !codec_s /. float_of_int !codec_n);
        ("serve.wire_us", 1e6 *. (rtt_mean -. per_request lat.Metricsreg.sum));
      ]
    in
    let info ~scale =
      let s = Array.sub !inquiry_lat.Recorder.lat 0 !inquiry_lat.Recorder.n in
      let t = Recorder.tail s in
      [
        ("inquiry_p50_us", if s = [||] then nan else 1e6 *. scale *. Stats.median s);
        ("inquiry_tail_us", 1e6 *. scale *. t.Recorder.value);
        ("inquiry_tail_percentile", t.Recorder.percentile);
        ("inquiry_samples", float_of_int t.Recorder.samples);
      ]
    in
    let teardown () =
      Array.iter Client.close clients;
      Server.stop_and_wait server;
      Fsio.remove_recursive dir
    in
    { round; settle; at_boundary = (fun () -> true); mark; check; quality; layer_extras; info; teardown }
  in
  { name = "tatsd-mix"; setup }

(* --- online-stream ------------------------------------------------------- *)

(* Why: the only workload that loads the Online event loop, Transient and
   Replay. One op is one Flow.run_online scenario (online loop, the
   clairvoyant baseline and the Online.score replay) with a cold engine:
   {seeded sporadic, trace} arrivals x {baseline, thermal, reactive} x
   Bm1-Bm4, pool jobs 1, in a seeded order per pass; the sporadic streams
   use one arrival seed per run. Merging Online.plan into List_sched must
   not slow it. Both competitive ratios of every op must be at least 1. *)
let online_stream =
  let setup ~seed ~corrupt =
    Pool.set_default_jobs 1;
    let graphs = Layers.bracket "taskgraph.load" (fun () -> Array.init 4 Benchmarks.load) in
    let lib = Layers.bracket "techlib.catalog" Catalog.platform_library in
    let policies =
      [| Online.Mirror Policy.Baseline; Online.Mirror Policy.Thermal_aware; Online.Reactive Online.default_reactive |]
    in
    let scenarios =
      Array.of_list
        (List.concat_map
           (fun arr -> List.concat_map (fun p -> List.map (fun b -> (arr, p, b)) [ 0; 1; 2; 3 ]) [ 0; 1; 2 ])
           [ `Sporadic; `Trace ])
    in
    let n = Array.length scenarios in
    let rng = Rng.create seed in
    let order = Array.init n Fun.id in
    let pos = ref 0 in
    (* Every pass repeats the same scenarios: one arrival seed per run. *)
    let sporadic_seed = Rng.int rng 1_000_000 in
    let floor = if corrupt then 2.0 else 1.0 in
    let q = pairs () and ratios = ref [] in
    (* bench -> steady report and makespan of this pass's first trace run *)
    let pass_reports = Hashtbl.create 16 in
    let round r =
      if !pos = 0 then begin
        Rng.shuffle rng order;
        Hashtbl.reset pass_reports
      end;
      let kind = order.(!pos) in
      let arr, pi, b = scenarios.(kind) in
      let arrivals =
        match arr with `Sporadic -> Flow.Release_sporadic sporadic_seed | `Trace -> Flow.Release_trace
      in
      let out = ref None in
      let ok =
        Recorder.op ~kind r (fun () ->
            let o = Flow.run_online ~arrivals ~graph:graphs.(b) ~lib ~policy:policies.(pi) () in
            out := Some o;
            o.Flow.score.Online.makespan_ratio >= floor && o.Flow.score.Online.peak_ratio >= floor)
      in
      (match !out with
      | Some o when ok ->
          ratios := o.Flow.score.Online.makespan_ratio :: !ratios;
          (* Thermal quality: the temperature-reactive policy against the
             baseline on the trace-arrival scenarios, which do not depend
             on the seed. *)
          if arr = `Trace && pi <> 1 then begin
            let s = o.Flow.online.Online.schedule in
            let rep = Metrics.thermal_report s ~hotspot:o.Flow.online_hotspot in
            let mine = (rep, s.Schedule.makespan) in
            match Hashtbl.find_opt pass_reports b with
            | None -> Hashtbl.replace pass_reports b mine
            | Some other ->
                let (base, bmk), (th, tmk) = if pi = 2 then (other, mine) else (mine, other) in
                add_pair q ~ref_max:base.Metrics.max_temp ~ref_avg:base.Metrics.avg_temp
                  ~ref_makespan:bmk ~max:th.Metrics.max_temp ~avg:th.Metrics.avg_temp ~makespan:tmk
          end
      | _ -> ());
      pos := (!pos + 1) mod n
    in
    {
      round;
      settle = ignore;
      at_boundary = (fun () -> !pos = 0);
      mark = ignore;
      check = ignore;
      (* On this workload the makespan ratio is the competitive ratio. *)
      quality = (fun () -> quality_of { q with ratio = !ratios });
      layer_extras = no_extras;
      info = no_info;
      teardown = ignore;
    }
  in
  { name = "online-stream"; setup }

(* --- dag-sweep ----------------------------------------------------------- *)

(* Why: the only workload that varies graph size (generated 80-102-task
   DAGs, long ready lists) and exercises the typed-platform path, artifact
   and manifest I/O and Pool batching. One op is one campaign cell. The op
   set is twelve seeded DAGs of 80, 82, ..., 102 tasks (200 time units of
   deadline per task) x {baseline, h3, thermal} x {Platform 4, Hetero
   biglittle4, Hetero mixed6}: 108 cells, in a seeded order per pass. Each
   round is one Campaign.run of one cell into a fresh store, so every op
   is timed on its own. Reading the manifest back, removing the store and
   a full major collection (which keeps the peak heap that of one cell)
   follow outside the timed round. The pool has jobs 1: at jobs 2 the
   throughput swung 3x between runs on a 2-vCPU host, because a
   descheduled vCPU stalls the other domain at every stop-the-world minor
   collection. A scheduler change tuned to the 19-51-task paper graphs
   that scales worse shows here. Every round must compute its cell and
   write the manifest, and a seeded sample of 3 cell results must equal
   Campaign.run_cell. *)
let dag_sweep =
  let module Campaign = Core.Campaign in
  let sizes = Array.init 12 (fun i -> 80 + (2 * i)) in
  let setup ~seed ~corrupt =
    let pool = Pool.create ~jobs:1 () in
    let dir = scratch_dir () in
    let store = Filename.concat dir "store" in
    let rng = Rng.create seed in
    let dags =
      Array.map
        (fun n_tasks ->
          let spec =
            { (Generator.scaled_spec ~n_tasks) with Generator.deadline = 200.0 *. float_of_int n_tasks }
          in
          (Rng.int rng 1_000_000, n_tasks, spec))
        sizes
    in
    (* The library's graph generator and platform catalogue, as the cells
       will call them. *)
    Layers.bracket "taskgraph.generate" (fun () ->
        Array.iter
          (fun (seed, _, spec) -> ignore (Generator.generate ~seed ~name:"dag" spec : Graph.t))
          dags);
    let platforms =
      Layers.bracket "techlib.catalog" (fun () ->
          List.iter
            (fun n -> ignore (Catalog.library_for (Option.get (Catalog.platform_named n)) : Library.t))
            [ "biglittle4"; "mixed6" ];
          List.map
            (fun arch ->
              {
                Campaign.arch;
                ambient = Package.default.Package.ambient;
                power_budget = None;
                pins = [];
                isolation = [];
              })
            [ Campaign.Platform 4; Campaign.Hetero "biglittle4"; Campaign.Hetero "mixed6" ])
    in
    let graphs =
      Array.to_list
        (Array.map
           (fun (seed, n_tasks, spec) ->
             Campaign.Generated
               { seed; n_tasks; n_edges = spec.Generator.n_edges; deadline = spec.Generator.deadline })
           dags)
    in
    let cells =
      Array.of_list
        (Campaign.expand
           {
             Campaign.name = "perfbench";
             graphs;
             policies = [ Policy.Baseline; h3; Policy.Thermal_aware ];
             platforms;
           })
    in
    let n = Array.length cells in
    let index_of (c : Campaign.cell) policy =
      let rec go i =
        let c' = cells.(i) in
        if c'.Campaign.graph = c.graph && c'.policy = policy && c'.platform = c.platform then i
        else go (i + 1)
      in
      go 0
    in
    let sampled = List.init 3 (fun _ -> Rng.int rng n) in
    let order = Array.init n Fun.id in
    let pos = ref 0 and current = ref 0 in
    let results : Campaign.result option array = Array.make n None in
    let round r =
      if !pos = 0 then Rng.shuffle rng order;
      let c = order.(!pos) in
      let cell = cells.(c) in
      current := c;
      ignore
        (Recorder.op ~kind:c r (fun () ->
             let rep =
               Campaign.run ~pool ~dir:store
                 {
                   Campaign.name = "perfbench";
                   graphs = [ cell.graph ];
                   policies = [ cell.policy ];
                   platforms = [ cell.platform ];
                 }
             in
             rep.Campaign.computed = 1 && rep.Campaign.manifest_written)
          : bool);
      pos := (!pos + 1) mod n
    in
    let settle r =
      (match Campaign.load_manifest ~dir:store with
      | Ok { Campaign.entries = [ e ]; _ } -> results.(!current) <- Some e.Campaign.result
      | Ok _ | Error _ -> Recorder.fail r 1);
      Fsio.remove_recursive store;
      Gc.full_major ()
    in
    let check r =
      let bad =
        List.filter
          (fun i ->
            let expect = Campaign.run_cell cells.(i) in
            let expect = { expect with Campaign.makespan = corrupt_float corrupt expect.Campaign.makespan } in
            results.(i) <> Some expect)
          sampled
      in
      Recorder.fail r (List.length bad)
    in
    (* Thermal-aware against h3 per (DAG, platform). *)
    let quality () =
      let p = pairs () in
      Array.iteri
        (fun i (c : Campaign.cell) ->
          if c.policy = Policy.Thermal_aware then
            match (results.(index_of c h3), results.(i)) with
            | Some r3, Some t ->
                add_pair p ~ref_max:r3.Campaign.max_temp ~ref_avg:r3.Campaign.avg_temp
                  ~ref_makespan:r3.Campaign.makespan ~max:t.Campaign.max_temp ~avg:t.Campaign.avg_temp
                  ~makespan:t.Campaign.makespan
            | _ -> ())
        cells;
      quality_of p
    in
    {
      round;
      settle;
      at_boundary = (fun () -> !pos = 0);
      mark = ignore;
      check;
      quality;
      layer_extras = no_extras;
      info = no_info;
      teardown =
        (fun () ->
          Pool.shutdown pool;
          Fsio.remove_recursive dir);
    }
  in
  { name = "dag-sweep"; setup }

let all = [ paper_tables; tatsd_mix; online_stream; dag_sweep ]
