(* The benchmark executable: runs one workload from a seed for a fixed
   time and prints one JSON line with its metrics. perfbench/run.py builds
   it, repeats set-up, and prints the result line the benchmark contract
   asks for.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--setup-only] [--t0 EPOCH] [--corrupt-reference]

   With --trace 0 the run measures end-to-end metrics with tracing off.
   With --trace 1 it spends half the time untraced and half traced, and
   reports the per-layer breakdown plus the tracing overhead. *)

open Core

let now = Unix.gettimeofday

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--setup-only] [--t0 EPOCH] [--corrupt-reference]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
  t0 : float;
  corrupt : bool;
}

let parse_args () =
  let t_start = now () in
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--setup-only" :: rest -> go { a with setup_only = true } rest
    | "--t0" :: v :: rest -> go { a with t0 = float_of_string v } rest
    | "--corrupt-reference" :: rest -> go { a with corrupt = true } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    try
      go
        {
          workload = "";
          seed = 1;
          seconds = 10.0;
          trace = false;
          setup_only = false;
          t0 = t_start;
          corrupt = false;
        }
        (List.tl (Array.to_list Sys.argv))
    with Failure _ -> usage ()
  in
  if a.seconds <= 0.0 then usage ();
  a

(* VmHWM of this process, MB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        nan (String.split_on_char '\n' s)

(* Rounds until [seconds] have passed and the ops form whole passes, with
   a calibration burst before the first round and after each round.
   Returns the time spent inside rounds; the workload's [settle] and
   [between] run outside it. *)
let window (inst : Workloads.instance) r ~seconds ~between =
  inst.Workloads.mark ();
  Recorder.calibrate r (Recorder.burst ~after_s:0.25);
  let t_end = now () +. seconds in
  let busy = ref 0.0 in
  while now () < t_end || not (inst.Workloads.at_boundary ()) do
    let t0 = now () in
    inst.Workloads.round r;
    let dt = now () -. t0 in
    busy := !busy +. dt;
    inst.Workloads.settle r;
    between ();
    Recorder.end_round r ~busy:dt;
    if inst.Workloads.at_boundary () then Recorder.end_pass r
  done;
  !busy

(* --- output --------------------------------------------------------------- *)

let json_num f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let metric (name, value, unit) = (name, json_obj [ ("value", json_num value); ("unit", Printf.sprintf "%S" unit) ])

let emit ~setup_s ~r ~metrics ~info =
  print_endline
    (json_obj
       [
         ("setup_s", json_num setup_s);
         ("attempted", string_of_int (Recorder.attempted r));
         ("failed", string_of_int (Recorder.failed r));
         ("metrics", json_obj (List.map metric metrics));
         ("info", json_obj (List.map (fun (k, v) -> (k, json_num v)) info));
       ])

(* Metrics come from the passes that fit in this share of the window at
   reference speed; the rest of the window is slack for a slow host. *)
let measured_share = 0.6

let end_to_end (inst : Workloads.instance) r ~seconds ~busy =
  let s = Recorder.summarize r ~budget:(measured_share *. seconds) in
  let measured = Recorder.measured r s in
  let tail = Recorder.tail measured in
  let q = inst.Workloads.quality () in
  let metrics =
    [
      ("ops_per_s", Recorder.pass_rate r s, "op/s");
      ("op_p50_ms", 1e3 *. Recorder.kind_median r s, "ms");
      ("op_tail_ms", 1e3 *. tail.Recorder.value, "ms");
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("thermal_gain_max_c", q.Workloads.gain_max, "degC");
      ("thermal_gain_avg_c", q.Workloads.gain_avg, "degC");
      ("makespan_ratio", q.Workloads.makespan_ratio, "ratio");
    ]
  in
  let attempted = Recorder.attempted r in
  let info =
    [
      ("op_tail_percentile", tail.Recorder.percentile);
      ("op_samples", float_of_int tail.Recorder.samples);
      ("op_pooled_p50_ms", if measured = [||] then nan else 1e3 *. Stats.median measured);
      ("passes", float_of_int (List.length s.Recorder.passes));
      ( "failed_ratio",
        if attempted = 0 then 1.0 else float_of_int (Recorder.failed r) /. float_of_int attempted );
      ("window_s", busy);
      ("unscaled_ops_per_s", float_of_int attempted /. busy);
      ("kernel_median_ms", 1e3 *. Recorder.kernel_median r);
      ("nproc", float_of_int (Domain.recommended_domain_count ()));
    ]
    @ inst.Workloads.info ~scale:(Recorder.scale r)
  in
  (metrics, info)

(* --- traced run: the per-layer breakdown ---------------------------------- *)

(* Hotspot.create plus its inquiry engine for the 4-PE platform, timed
   from the benchmark: the median of 21 builds. *)
let engine_build_s () =
  let build () =
    let t0 = now () in
    ignore (Hotspot.inquiry (Serve.Engines.platform (Serve.Engines.create ()) ~n_pes:4) : Inquiry.t);
    now () -. t0
  in
  Stats.median (Array.init 21 (fun _ -> build ()))

let per_layer (inst : Workloads.instance) ~(l : Layers.t) ~ops ~wall ~snap0 ~snap1
    ~untraced_ops_per_s ~traced_ops_per_s ~scale =
  let per_op x = if ops = 0 then 0.0 else x /. float_of_int ops in
  let d name = float_of_int (Layers.delta snap0 snap1 name) in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let self names = List.fold_left (fun acc n -> acc +. Layers.self l n) 0.0 names in
  let self_prefix prefixes = Layers.sum_prefixes l prefixes (fun a -> a.Layers.self) in
  let inquiries = d "inquiry.inquiries" and hits = d "inquiry.cache_hits" in
  let q_hits = d "transient.q_cache_hits" and q_misses = d "transient.q_cache_misses" in
  let layers = Layers.self_by_layer l in
  let attributed =
    Hashtbl.fold (fun layer s acc -> if layer = "bench" then acc else acc +. s) layers 0.0
  in
  let c = "count/op" in
  let base =
    [
      ("taskgraph.build_ms", 1e3 *. (Layers.bracket_total "taskgraph.load" +. Layers.bracket_total "taskgraph.generate"), "ms");
      ("techlib.library_ms", 1e3 *. Layers.bracket_total "techlib.catalog", "ms");
      ("floorplan.ga_self_s", per_op (self_prefix [ "ga."; "sa." ]), "s/op");
      ("floorplan.ga_evaluations", per_op (d "ga.evaluations"), c);
      ("cosynth.alloc_self_s", per_op (self [ "flow.alloc" ]), "s/op");
      ("cosynth.iterations", per_op (d "flow.iterations"), c);
      ("thermal.engine_build_ms", 1e3 *. engine_build_s (), "ms");
      ("thermal.engines_built", per_op (d "hotspot.engines_built"), c);
      ("thermal.inquiry_self_s", per_op (self_prefix [ "inquiry." ]), "s/op");
      ("thermal.inquiries", per_op inquiries, c);
      ("thermal.inquiry_hit_ratio", ratio hits inquiries, "ratio");
      ("thermal.fp_iters_per_solve", ratio (d "inquiry.fp_iterations") (inquiries -. hits), "count");
      ("thermal.transient_self_s", per_op (self_prefix [ "transient." ]), "s/op");
      ("thermal.transient_steps", per_op (d "transient.steps"), c);
      ("thermal.q_cache_hit_ratio", ratio q_hits (q_hits +. q_misses), "ratio");
      ("linalg.lu_factorizations", per_op (d "lu.factorizations"), c);
      ("linalg.lu_solves", per_op (d "lu.solves"), c);
      ( "sched.attempts_per_schedule",
        ratio (d "sched.adaptive_attempts") (float_of_int l.Layers.adaptive_schedules),
        "count" );
      ("sched.list_self_s", per_op (self_prefix [ "sched." ]), "s/op");
      ("sched.steps", per_op (d "sched.steps"), c);
      ("sched.candidates", per_op (d "sched.candidates"), c);
      ("sched.online_self_s", per_op (self [ "online.run"; "online.event"; "online.clairvoyant" ]), "s/op");
      ("sched.online_decisions", per_op (d "online.decisions"), c);
      ("sched.online_deferrals", per_op (d "online.deferrals"), c);
      ("sched.score_self_s", per_op (self [ "online.score" ]), "s/op");
      ( "campaign.cell_overhead_ms",
        (let n = Layers.calls l "campaign.cell" in
         if n = 0 then 0.0 else 1e3 *. Layers.self l "campaign.cell" /. float_of_int n),
        "ms" );
      ( "campaign.manifest_ms",
        (let n = Layers.calls l "campaign.manifest" in
         if n = 0 then 0.0 else 1e3 *. Layers.incl l "campaign.manifest" /. float_of_int n),
        "ms" );
      ("util.pool_self_s", per_op (self_prefix [ "pool." ]), "s/op");
      ("util.pool_steals", per_op (d "pool.steals"), c);
      ("util.pool_parks", per_op (d "pool.parks"), c);
      ("bench.untraced_ops_per_s", untraced_ops_per_s, "op/s");
      ("bench.traced_ops_per_s", traced_ops_per_s, "op/s");
      ( "bench.trace_overhead_pct",
        100.0 *. (untraced_ops_per_s -. traced_ops_per_s) /. untraced_ops_per_s,
        "%" );
      ("bench.layer_self_pct", 100.0 *. attributed /. wall, "%");
    ]
  in
  let serve_names =
    [
      ("serve.wire_us", "us"); ("serve.codec_us", "us"); ("serve.queue_us", "us");
      ("serve.queue_depth_max", "count"); ("serve.execute_us.inquiry", "us");
      ("serve.execute_us.schedule", "us"); ("serve.engine_hit_ratio", "ratio");
    ]
  in
  let extras = inst.Workloads.layer_extras l in
  (* Times are scaled to the reference speed like the end-to-end ones. *)
  List.map
    (fun (n, v, u) -> if List.mem u [ "ms"; "us"; "s/op" ] then (n, v *. scale, u) else (n, v, u))
    (base
    @ List.map
        (fun (n, u) -> (n, Option.value ~default:0.0 (List.assoc_opt n extras), u))
        serve_names)

let () =
  let a = parse_args () in
  let w =
    match List.find_opt (fun w -> w.Workloads.name = a.workload) Workloads.all with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" a.workload
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2
  in
  let inst = w.Workloads.setup ~seed:a.seed ~corrupt:a.corrupt in
  let raw_setup_s = now () -. a.t0 in
  (* Set-up is scaled by a calibration burst taken right after it. *)
  let setup_s =
    raw_setup_s *. Recorder.reference_kernel_s /. Stats.median (Recorder.burst ~after_s:0.375)
  in
  let setup_info = [ ("unscaled_setup_s", raw_setup_s) ] in
  Fun.protect ~finally:inst.Workloads.teardown @@ fun () ->
  let r = Recorder.create () in
  if a.setup_only then emit ~setup_s ~r ~metrics:[] ~info:setup_info
  else if not a.trace then begin
    let busy = window inst r ~seconds:a.seconds ~between:ignore in
    inst.Workloads.check r;
    let metrics, info = end_to_end inst r ~seconds:a.seconds ~busy in
    emit ~setup_s ~r ~metrics ~info:(setup_info @ info)
  end
  else begin
    let half = a.seconds /. 2.0 in
    let ru = Recorder.create () in
    ignore (window inst ru ~seconds:half ~between:ignore : float);
    let rate r = Recorder.pass_rate r (Recorder.summarize r ~budget:(measured_share *. half)) in
    let untraced_ops_per_s = rate ru in
    let l = Layers.create () in
    Metricsreg.reset_histogram (Metricsreg.histogram "serve.latency_s");
    let snap0 = Layers.snapshot () in
    Trace.start ();
    let wall = window inst r ~seconds:half ~between:(fun () -> Layers.drain l) in
    Trace.stop ();
    let snap1 = Layers.snapshot () in
    inst.Workloads.check r;
    let metrics =
      per_layer inst ~l ~ops:(Recorder.attempted r) ~wall ~snap0 ~snap1 ~untraced_ops_per_s
        ~traced_ops_per_s:(rate r)
        ~scale:(Recorder.scale r)
    in
    emit ~setup_s ~r ~metrics ~info:(setup_info @ inst.Workloads.info ~scale:(Recorder.scale r))
  end
