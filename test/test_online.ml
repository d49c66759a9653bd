(* Differential and property tests for Tats_sched.Online.

   The anchor is the degenerate-stream theorem: with every task released
   at t = 0 the online event loop collapses to a single decision event
   whose candidate scan, DC arithmetic and tie-breaking are the offline
   list scheduler's — so the schedules must agree bit for bit, across
   every policy and benchmark. The property half drives randomized
   sporadic streams (Rng.derive-seeded) through feasibility, bitwise
   replay-scoring, competitive-ratio and pool-determinism checks. *)

module Graph = Tats_taskgraph.Graph
module Benchmarks = Tats_taskgraph.Benchmarks
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Rcmodel = Tats_thermal.Rcmodel
module Transient = Tats_thermal.Transient
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched
module Replay = Tats_sched.Replay
module Online = Tats_sched.Online
module Pool = Tats_util.Pool
module Flow = Tats_cosynth.Flow

let platform_lib = Catalog.platform_library ()
let platform_pes n = Catalog.platform_instances n

let platform_hotspot n =
  Hotspot.create
    (Grid.layout
       (Array.map
          (fun (i : Pe.inst) ->
            Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
          (platform_pes n)))

let bm1 () = Benchmarks.load 0
let bm2 () = Benchmarks.load 1
let bm3 () = Benchmarks.load 2

let check_bits what a b =
  Alcotest.(check int64)
    what (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_same_schedule what (a : Schedule.t) (b : Schedule.t) =
  Alcotest.(check int)
    (what ^ ": entry count")
    (Array.length a.Schedule.entries)
    (Array.length b.Schedule.entries);
  Array.iteri
    (fun i (ea : Schedule.entry) ->
      let eb = b.Schedule.entries.(i) in
      let tag fmt = Printf.sprintf "%s: entry %d %s" what i fmt in
      Alcotest.(check int) (tag "task") ea.Schedule.task eb.Schedule.task;
      Alcotest.(check int) (tag "pe") ea.Schedule.pe eb.Schedule.pe;
      check_bits (tag "start") ea.Schedule.start eb.Schedule.start;
      check_bits (tag "finish") ea.Schedule.finish eb.Schedule.finish;
      check_bits (tag "energy") ea.Schedule.energy eb.Schedule.energy)
    a.Schedule.entries;
  check_bits (what ^ ": makespan") a.Schedule.makespan b.Schedule.makespan

let online_zero ?hotspot ~policy graph =
  let pes = platform_pes 4 in
  Online.run ?hotspot
    ~arrivals:(Online.zero graph)
    ~graph ~lib:platform_lib ~pes ~policy ()

(* --- Degenerate stream: online == offline, bit for bit ------------------ *)

let test_t0_bit_identity_all_policies () =
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  List.iter
    (fun policy ->
      let hs = if policy = Policy.Thermal_aware then Some hotspot else None in
      let offline =
        List_sched.run ?hotspot:hs ~graph ~lib:platform_lib ~pes ~policy ()
      in
      let online = online_zero ?hotspot:hs ~policy:(Online.Mirror policy) graph in
      check_same_schedule
        ("Bm1 " ^ Policy.name policy)
        offline online.Online.schedule;
      Alcotest.(check int)
        "single decision event" 1 online.Online.stats.Online.events)
    Policy.all

let test_t0_bit_identity_bm2_bm3 () =
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  List.iter
    (fun graph ->
      List.iter
        (fun policy ->
          let hs =
            if policy = Policy.Thermal_aware then Some hotspot else None
          in
          let offline =
            List_sched.run ?hotspot:hs ~graph ~lib:platform_lib ~pes ~policy ()
          in
          let online =
            online_zero ?hotspot:hs ~policy:(Online.Mirror policy) graph
          in
          check_same_schedule
            (Graph.name graph ^ " " ^ Policy.name policy)
            offline online.Online.schedule)
        [ Policy.Baseline; Policy.Thermal_aware ])
    [ bm2 (); bm3 () ]

let test_clairvoyant_zero_equals_offline () =
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  List.iter
    (fun policy ->
      let hs = if policy = Policy.Thermal_aware then Some hotspot else None in
      let offline =
        List_sched.run ?hotspot:hs ~graph ~lib:platform_lib ~pes ~policy ()
      in
      let clair =
        Online.clairvoyant ?hotspot:hs
          ~arrivals:(Online.zero graph)
          ~graph ~lib:platform_lib ~pes ~policy ()
      in
      check_same_schedule ("clairvoyant " ^ Policy.name policy) offline clair)
    Policy.all

let test_reactive_cold_trigger_equals_mirror () =
  (* With a trigger no real platform reaches, the reactive policy never
     penalizes and never defers: it must equal its mirror base exactly —
     and, on the zero stream, the offline scheduler. *)
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  let reactive =
    Online.Reactive { Online.default_reactive with Online.trigger = 1e9 }
  in
  let offline =
    List_sched.run ~hotspot ~graph ~lib:platform_lib ~pes
      ~policy:Policy.Thermal_aware ()
  in
  let online = online_zero ~hotspot ~policy:reactive graph in
  check_same_schedule "reactive(cold) vs offline" offline online.Online.schedule;
  Alcotest.(check int) "no deferrals" 0 online.Online.stats.Online.deferrals;
  Alcotest.(check bool)
    "live peak sampled" true
    (Float.is_finite online.Online.stats.Online.peak_observed);
  (* Under a real release stream too, where start floors bind: a cold
     trigger makes every cost surcharge zero, so reactive equals its
     mirror base. *)
  let arrivals = Online.sporadic ~seed:7 graph in
  let run policy =
    Online.run ~hotspot ~arrivals ~graph ~lib:platform_lib ~pes ~policy ()
  in
  let sporadic = run reactive in
  check_same_schedule "sporadic reactive(cold) vs mirror"
    (run (Online.Mirror Policy.Thermal_aware)).Online.schedule
    sporadic.Online.schedule;
  Alcotest.(check int) "no sporadic deferrals" 0
    sporadic.Online.stats.Online.deferrals

(* --- Edge cases --------------------------------------------------------- *)

let test_empty_graph () =
  let graph = Graph.build (Graph.builder ~name:"empty" ~deadline:100.0) in
  let pes = platform_pes 2 in
  let r =
    Online.run
      ~arrivals:(Online.zero graph)
      ~graph ~lib:platform_lib ~pes ~policy:(Online.Mirror Policy.Baseline) ()
  in
  Alcotest.(check int) "no entries" 0 (Array.length r.Online.schedule.Schedule.entries);
  check_bits "zero makespan" 0.0 r.Online.schedule.Schedule.makespan;
  let clair =
    Online.clairvoyant
      ~arrivals:(Online.zero graph)
      ~graph ~lib:platform_lib ~pes ~policy:Policy.Baseline ()
  in
  let hotspot = platform_hotspot 2 in
  let s = Online.score ~lib:platform_lib ~hotspot ~clairvoyant:clair r in
  check_bits "degenerate makespan ratio" 1.0 s.Online.makespan_ratio;
  Alcotest.(check bool) "peak ratio >= 1" true (s.Online.peak_ratio >= 1.0)

let test_singleton_release () =
  let b = Graph.builder ~name:"one" ~deadline:100.0 in
  let _t0 = Graph.add_task b ~task_type:0 () in
  let graph = Graph.build b in
  let pes = platform_pes 2 in
  let r =
    Online.run ~arrivals:[| 7.5 |] ~graph ~lib:platform_lib ~pes
      ~policy:(Online.Mirror Policy.Baseline) ()
  in
  let e = r.Online.schedule.Schedule.entries.(0) in
  check_bits "starts exactly at release" 7.5 e.Schedule.start;
  Alcotest.(check (list Alcotest.reject)) "no violations" []
    (Schedule.validate ~lib:platform_lib r.Online.schedule);
  Alcotest.(check (list Alcotest.int)) "release respected" []
    (Online.released_before_start r)

let test_all_simultaneous_release () =
  (* Every task appears at t = 42: one decision event, everything starts
     at or after 42, and the schedule stays feasible. *)
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let arrivals = Array.make (Graph.n_tasks graph) 42.0 in
  let r =
    Online.run ~arrivals ~graph ~lib:platform_lib ~pes
      ~policy:(Online.Mirror Policy.Baseline) ()
  in
  Alcotest.(check int) "one event" 1 r.Online.stats.Online.events;
  Array.iter
    (fun (e : Schedule.entry) ->
      Alcotest.(check bool) "start >= 42" true (e.Schedule.start >= 42.0))
    r.Online.schedule.Schedule.entries;
  Alcotest.(check int) "feasible" 0
    (List.length (Schedule.validate ~lib:platform_lib r.Online.schedule));
  let offline =
    List_sched.run ~graph ~lib:platform_lib ~pes ~policy:Policy.Baseline ()
  in
  Alcotest.(check bool)
    "shifted stream cannot beat the offline makespan" true
    (r.Online.schedule.Schedule.makespan
    >= offline.Schedule.makespan -. 1e-9)

(* --- Validation and policy plumbing ------------------------------------- *)

let test_arrivals_validation () =
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let run arrivals =
    ignore
      (Online.run ~arrivals ~graph ~lib:platform_lib ~pes
         ~policy:(Online.Mirror Policy.Baseline) ()
        : Online.run)
  in
  let invalid f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "short array" true (invalid (fun () -> run [| 0.0 |]));
  Alcotest.(check bool) "negative release" true
    (invalid (fun () ->
         let a = Online.zero graph in
         a.(3) <- -1.0;
         run a));
  Alcotest.(check bool) "nan release" true
    (invalid (fun () ->
         let a = Online.zero graph in
         a.(0) <- Float.nan;
         run a));
  Alcotest.(check bool) "non-positive mean gap" true
    (invalid (fun () -> ignore (Online.sporadic ~mean_gap:0.0 ~seed:1 graph)))

let test_reactive_validation () =
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let run ?time_unit r =
    ignore
      (Online.run ?time_unit ~hotspot:(platform_hotspot 4)
         ~arrivals:(Online.zero graph) ~graph ~lib:platform_lib ~pes
         ~policy:(Online.Reactive r) ()
        : Online.run)
  in
  let r = Online.default_reactive in
  List.iter
    (fun (what, f) ->
      Alcotest.(check bool) what true
        (try f (); false
         with Invalid_argument msg -> String.starts_with ~prefix:"Online: " msg))
    [
      ("nan trigger", fun () -> run { r with Online.trigger = Float.nan });
      ("inf trigger", fun () -> run { r with Online.trigger = Float.infinity });
      ("-inf trigger", fun () -> run { r with Online.trigger = Float.neg_infinity });
      ("nan penalty", fun () -> run { r with Online.penalty = Float.nan });
      ("negative penalty", fun () -> run { r with Online.penalty = -1.0 });
      ("inf cooldown", fun () -> run { r with Online.cooldown = Float.infinity });
      ("negative cooldown", fun () -> run { r with Online.cooldown = -5.0 });
      ("negative max_defers", fun () -> run { r with Online.max_defers = -1 });
      ("nan time_unit", fun () -> run ~time_unit:Float.nan r);
      ("zero time_unit", fun () -> run ~time_unit:0.0 r);
    ];
  (* The edges of the valid ranges still run. *)
  run { r with Online.trigger = 0.0; penalty = 0.0; cooldown = 0.0; max_defers = 0 }

let test_policy_needs_hotspot () =
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let raises policy =
    try
      ignore
        (Online.run
           ~arrivals:(Online.zero graph)
           ~graph ~lib:platform_lib ~pes ~policy ()
          : Online.run);
      false
    with Online.Policy_needs_hotspot -> true
  in
  Alcotest.(check bool) "thermal mirror" true
    (raises (Online.Mirror Policy.Thermal_aware));
  Alcotest.(check bool) "reactive" true
    (raises (Online.Reactive Online.default_reactive));
  Alcotest.(check bool) "wrong block count" true
    (try
       ignore
         (Online.run
            ~hotspot:(platform_hotspot 2)
            ~arrivals:(Online.zero graph)
            ~graph ~lib:platform_lib ~pes
            ~policy:(Online.Mirror Policy.Thermal_aware) ()
           : Online.run);
       false
     with Invalid_argument _ -> true)

let test_policy_names_roundtrip () =
  List.iter
    (fun p ->
      let o = Online.Mirror p in
      match Online.policy_of_name (Online.policy_name o) with
      | Some (Online.Mirror p') ->
          Alcotest.(check bool) ("mirror " ^ Policy.name p) true (p = p')
      | _ -> Alcotest.failf "mirror %s did not round-trip" (Policy.name p))
    Policy.all;
  (match Online.policy_of_name "reactive" with
  | Some (Online.Reactive r) ->
      Alcotest.(check bool) "reactive default" true (r = Online.default_reactive)
  | _ -> Alcotest.fail "reactive did not parse");
  Alcotest.(check bool) "unknown name" true (Online.policy_of_name "bogus" = None)

(* --- Arrival streams ---------------------------------------------------- *)

let test_sporadic_respects_precedence () =
  let graph = bm2 () in
  let a = Online.sporadic ~seed:11 graph in
  for v = 0 to Graph.n_tasks graph - 1 do
    Alcotest.(check bool) "non-negative" true (a.(v) >= 0.0);
    List.iter
      (fun (p, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "release %d after pred %d" v p)
          true (a.(v) > a.(p)))
      (Graph.preds graph v)
  done

let test_sporadic_deterministic () =
  let graph = bm1 () in
  let a = Online.sporadic ~seed:7 graph in
  let b = Online.sporadic ~seed:7 graph in
  Array.iteri (fun i ai -> check_bits (Printf.sprintf "task %d" i) ai b.(i)) a;
  let c = Online.sporadic ~seed:8 graph in
  Alcotest.(check bool) "seed changes the stream" true (a <> c)

let test_of_trace_replays_starts () =
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let offline =
    List_sched.run ~graph ~lib:platform_lib ~pes ~policy:Policy.Baseline ()
  in
  let a = Online.of_trace offline in
  Array.iteri
    (fun i (e : Schedule.entry) ->
      check_bits (Printf.sprintf "task %d" i) e.Schedule.start a.(i))
    offline.Schedule.entries;
  (* The trace-driven stream is feasible to schedule online. *)
  let r =
    Online.run ~arrivals:a ~graph ~lib:platform_lib ~pes
      ~policy:(Online.Mirror Policy.Baseline) ()
  in
  Alcotest.(check int) "feasible" 0
    (List.length (Schedule.validate ~lib:platform_lib r.Online.schedule))

(* --- Properties over randomized streams --------------------------------- *)

let seeds = [ 1; 2; 3; 5; 8; 13 ]

let test_prop_always_feasible () =
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  List.iter
    (fun seed ->
      let arrivals = Online.sporadic ~seed graph in
      List.iter
        (fun policy ->
          let r =
            Online.run ~hotspot ~arrivals ~graph ~lib:platform_lib ~pes ~policy
              ()
          in
          Alcotest.(check int)
            (Printf.sprintf "seed %d %s: validates" seed
               (Online.policy_name policy))
            0
            (List.length (Schedule.validate ~lib:platform_lib r.Online.schedule));
          Alcotest.(check (list Alcotest.int))
            (Printf.sprintf "seed %d %s: releases respected" seed
               (Online.policy_name policy))
            [] (Online.released_before_start r);
          Array.iteri
            (fun t (e : Schedule.entry) ->
              Alcotest.(check bool) "start >= release" true
                (e.Schedule.start >= arrivals.(t)))
            r.Online.schedule.Schedule.entries)
        [
          Online.Mirror Policy.Baseline;
          Online.Mirror Policy.Thermal_aware;
          Online.Reactive Online.default_reactive;
        ])
    seeds

let test_prop_clairvoyant_never_loses () =
  let graph = bm2 () in
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  List.iter
    (fun seed ->
      let arrivals = Online.sporadic ~seed graph in
      let clair =
        Online.clairvoyant ~hotspot ~arrivals ~graph ~lib:platform_lib ~pes
          ~policy:Policy.Thermal_aware ()
      in
      let r =
        Online.run ~hotspot ~arrivals ~graph ~lib:platform_lib ~pes
          ~policy:(Online.Mirror Policy.Thermal_aware) ()
      in
      let s = Online.score ~lib:platform_lib ~hotspot ~clairvoyant:clair r in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: makespan ratio >= 1" seed)
        true
        (s.Online.makespan_ratio >= 1.0);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: peak ratio >= 1" seed)
        true
        (s.Online.peak_ratio >= 1.0))
    seeds;
  (* The end-to-end Flow.run_online scenarios: sporadic and trace streams
     across benchmarks, mirrored and reactive policies. *)
  List.iter
    (fun (bench, arrivals, policy) ->
      let o =
        Flow.run_online ~arrivals ~graph:(Benchmarks.load bench)
          ~lib:platform_lib ~policy ()
      in
      let sc = o.Flow.score in
      let tag =
        Printf.sprintf "Bm%d %s %s" (bench + 1)
          (Flow.arrival_source_name arrivals)
          (Online.policy_name policy)
      in
      Alcotest.(check bool)
        (tag ^ ": makespan ratio >= 1")
        true
        (sc.Online.makespan_ratio >= 1.0);
      Alcotest.(check bool)
        (tag ^ ": peak ratio >= 1")
        true
        (sc.Online.peak_ratio >= 1.0))
    [
      (0, Flow.Release_sporadic 1, Online.Mirror Policy.Baseline);
      (0, Flow.Release_sporadic 1, Online.Mirror Policy.Thermal_aware);
      ( 0,
        Flow.Release_sporadic 1,
        Online.Reactive { Online.default_reactive with Online.trigger = 50.0 } );
      (1, Flow.Release_sporadic 2, Online.Mirror Policy.Thermal_aware);
      (2, Flow.Release_trace, Online.Mirror Policy.Thermal_aware);
    ]

let test_prop_replay_peak_bitwise () =
  (* Replay-based scoring is exactly the Transient engine: driving the
     engine by hand over the same profile must reproduce the scored peak
     bit for bit. *)
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  List.iter
    (fun seed ->
      let arrivals = Online.sporadic ~seed graph in
      let r =
        Online.run ~hotspot ~arrivals ~graph ~lib:platform_lib ~pes
          ~policy:(Online.Reactive Online.default_reactive) ()
      in
      let profile = Replay.of_schedule ~lib:platform_lib r.Online.schedule in
      let scored = Replay.peaks ~hotspot profile in
      let model = Hotspot.model hotspot in
      let engine = Transient.create (Transient.of_model model) in
      let res =
        Transient.replay engine ~profile
          ~t0:(Transient.initial_ambient model)
          ~dt:(Transient.profile_duration profile /. 100.0)
          ~periods:50
      in
      let manual =
        Array.sub res.Transient.last_period_peak 0 (Rcmodel.n_blocks model)
      in
      Alcotest.(check int) "block count" (Array.length manual)
        (Array.length scored);
      Array.iteri
        (fun i m ->
          check_bits (Printf.sprintf "seed %d block %d" seed i) m scored.(i))
        manual)
    [ 1; 5; 13 ]

let test_prop_jobs_identity () =
  (* A batch of sporadic streams evaluated under 1-, 2- and 4-domain
     pools must give bitwise-identical schedules — per-stream work is
     seeded by Rng.derive and every run builds its own transient engine. *)
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  let streams = Array.init 8 (fun i -> i * 17) in
  let evaluate jobs =
    Pool.with_pool ~jobs (fun pool ->
        Pool.parallel_map pool
          (fun seed ->
            let arrivals = Online.sporadic ~seed graph in
            let r =
              Online.run ~hotspot ~arrivals ~graph ~lib:platform_lib ~pes
                ~policy:(Online.Reactive Online.default_reactive) ()
            in
            Array.map
              (fun (e : Schedule.entry) ->
                ( e.Schedule.task,
                  e.Schedule.pe,
                  Int64.bits_of_float e.Schedule.start,
                  Int64.bits_of_float e.Schedule.finish ))
              r.Online.schedule.Schedule.entries)
          streams)
  in
  let reference = evaluate 1 in
  List.iter
    (fun jobs ->
      let got = evaluate jobs in
      Array.iteri
        (fun i expected ->
          Alcotest.(check bool)
            (Printf.sprintf "stream %d identical at jobs %d" i jobs)
            true
            (expected = got.(i)))
        reference)
    [ 2; 4 ]

(* --- Reactive behaviour ------------------------------------------------- *)

let test_reactive_deferrals_bounded () =
  (* trigger 0 °C: every PE is always "hot", so each task is deferred
     exactly max_defers times before the cap forces the commit. *)
  let b = Graph.builder ~name:"hot" ~deadline:1000.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:1 () in
  let t2 = Graph.add_task b ~task_type:2 () in
  Graph.add_edge b ~data:16.0 t0 t1;
  Graph.add_edge b ~data:16.0 t0 t2;
  let graph = Graph.build b in
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  let policy =
    Online.Reactive
      {
        Online.default_reactive with
        Online.trigger = 0.0;
        Online.cooldown = 5.0;
        Online.max_defers = 2;
      }
  in
  let r =
    Online.run ~hotspot
      ~arrivals:(Online.zero graph)
      ~graph ~lib:platform_lib ~pes ~policy ()
  in
  Alcotest.(check int) "deferrals = tasks * max_defers" (3 * 2)
    r.Online.stats.Online.deferrals;
  Alcotest.(check int) "still schedules everything" 3
    (Array.length r.Online.schedule.Schedule.entries);
  Alcotest.(check int) "feasible" 0
    (List.length (Schedule.validate ~lib:platform_lib r.Online.schedule));
  Alcotest.(check bool) "deferrals delay the start" true
    (r.Online.schedule.Schedule.entries.(t0).Schedule.start >= 10.0)

let test_stats_sanity () =
  let graph = bm1 () in
  let pes = platform_pes 4 in
  let hotspot = platform_hotspot 4 in
  let arrivals = Online.sporadic ~seed:3 graph in
  let mirror =
    Online.run ~arrivals ~graph ~lib:platform_lib ~pes
      ~policy:(Online.Mirror Policy.Baseline) ()
  in
  Alcotest.(check int) "decisions = tasks" (Graph.n_tasks graph)
    mirror.Online.stats.Online.decisions;
  Alcotest.(check bool) "events >= 1" true (mirror.Online.stats.Online.events >= 1);
  Alcotest.(check bool) "candidates counted" true
    (mirror.Online.stats.Online.candidates >= Graph.n_tasks graph * 4);
  Alcotest.(check bool) "mirror never samples temperature" true
    (Float.is_nan mirror.Online.stats.Online.peak_observed);
  let reactive =
    Online.run ~hotspot ~arrivals ~graph ~lib:platform_lib ~pes
      ~policy:(Online.Reactive Online.default_reactive) ()
  in
  Alcotest.(check bool) "reactive samples temperature" true
    (Float.is_finite reactive.Online.stats.Online.peak_observed)

let () =
  Runner.run "online"
    [
      ( "differential",
        [
          Alcotest.test_case "t0 bit-identity, all policies, Bm1" `Quick
            test_t0_bit_identity_all_policies;
          Alcotest.test_case "t0 bit-identity, Bm2/Bm3" `Quick
            test_t0_bit_identity_bm2_bm3;
          Alcotest.test_case "clairvoyant(zero) = offline" `Quick
            test_clairvoyant_zero_equals_offline;
          Alcotest.test_case "reactive(cold trigger) = mirror" `Quick
            test_reactive_cold_trigger_equals_mirror;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "singleton release" `Quick test_singleton_release;
          Alcotest.test_case "all-simultaneous release" `Quick
            test_all_simultaneous_release;
        ] );
      ( "validation",
        [
          Alcotest.test_case "arrival validation" `Quick
            test_arrivals_validation;
          Alcotest.test_case "policies need a hotspot" `Quick
            test_policy_needs_hotspot;
          Alcotest.test_case "policy names round-trip" `Quick
            test_policy_names_roundtrip;
          Alcotest.test_case "reactive parameters checked" `Quick
            test_reactive_validation;
        ] );
      ( "arrival streams",
        [
          Alcotest.test_case "sporadic respects precedence" `Quick
            test_sporadic_respects_precedence;
          Alcotest.test_case "sporadic is deterministic" `Quick
            test_sporadic_deterministic;
          Alcotest.test_case "of_trace replays starts" `Quick
            test_of_trace_replays_starts;
        ] );
      ( "properties",
        [
          Alcotest.test_case "always feasible" `Quick test_prop_always_feasible;
          Alcotest.test_case "clairvoyant never loses" `Quick
            test_prop_clairvoyant_never_loses;
          Alcotest.test_case "replay peak bitwise = transient engine" `Quick
            test_prop_replay_peak_bitwise;
          Alcotest.test_case "jobs 1/2/4 bit-identity" `Quick
            test_prop_jobs_identity;
        ] );
      ( "reactive",
        [
          Alcotest.test_case "deferrals bounded by max_defers" `Quick
            test_reactive_deferrals_bounded;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
        ] );
    ]
