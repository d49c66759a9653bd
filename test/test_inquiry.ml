(* Tests for the thermal inquiry engine: influence-matrix extraction, the
   numerical-equivalence guarantee against the dense Steady path (linear,
   leakage fixed point, delta evaluation), inquiry caching, and the
   instrumentation counters. *)

module Lu = Tats_linalg.Lu
module Matrix = Tats_linalg.Matrix
module Benchmarks = Tats_taskgraph.Benchmarks
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Steady = Tats_thermal.Steady
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched
module Montecarlo = Tats_sched.Montecarlo
module Pool = Tats_util.Pool

let platform_lib = Catalog.platform_library ()
let platform_pes n = Catalog.platform_instances n

let platform_hotspot n =
  Hotspot.create
    (Grid.layout
       (Array.map
          (fun (i : Pe.inst) ->
            Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
          (platform_pes n)))

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

(* Power vectors shaped like real inquiries: a few W of dynamic power plus
   the platform idle floor. *)
let idle4 = [| 0.6; 0.6; 0.6; 0.6 |]

let sample_dynamics =
  [
    [| 2.0; 6.0; 1.0; 3.0 |];
    [| 0.0; 0.0; 0.0; 0.0 |];
    [| 8.0; 0.1; 0.1; 0.1 |];
    [| 3.3; 3.3; 3.3; 3.3 |];
    [| 0.07; 4.9; 2.2; 0.0 |];
  ]

(* --- influence matrix ----------------------------------------------------- *)

let test_influence_columns_are_unit_solutions () =
  let h = platform_hotspot 4 in
  let engine = Hotspot.inquiry h in
  let factored = Steady.factored (Hotspot.solver h) in
  let n = Inquiry.n_blocks engine in
  Alcotest.(check int) "n_blocks" 4 n;
  let m = Inquiry.influence engine in
  for j = 0 to n - 1 do
    let unit = Lu.unit_solution factored j in
    let col = Inquiry.influence_column engine j in
    let mcol = Matrix.col m j in
    for i = 0 to n - 1 do
      Alcotest.(check (float 0.0)) "col = unit solution" unit.(i) col.(i);
      Alcotest.(check (float 0.0)) "influence = col" col.(i) mcol.(i)
    done
  done

let test_influence_symmetric_positive () =
  (* The RC network is reciprocal: heating block j raises block i exactly as
     much as the reverse, and any injected power raises every block. *)
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let m = Inquiry.influence engine in
  for i = 0 to 3 do
    for j = 0 to 3 do
      Alcotest.(check bool) "positive" true (Matrix.get m i j > 0.0);
      Alcotest.(check (float 1e-9)) "symmetric" (Matrix.get m i j)
        (Matrix.get m j i)
    done
  done

let test_linear_temperatures_match_dense () =
  let h = platform_hotspot 4 in
  let engine = Hotspot.inquiry h in
  let solver = Hotspot.solver h in
  List.iter
    (fun dynamic ->
      let power = Array.mapi (fun i d -> d +. idle4.(i)) dynamic in
      let fast = Inquiry.temperatures engine ~power in
      let dense = Steady.block_temperatures solver ~power in
      Alcotest.(check bool)
        (Printf.sprintf "diff %.2e" (max_abs_diff fast dense))
        true
        (max_abs_diff fast dense <= 1e-9))
    sample_dynamics

(* --- leakage equivalence -------------------------------------------------- *)

let test_leakage_query_matches_dense () =
  let h = platform_hotspot 4 in
  let engine = Hotspot.inquiry h in
  let solver = Hotspot.solver h in
  List.iter
    (fun dynamic ->
      let fast = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
      let dense, _ = Steady.solve_with_leakage solver ~dynamic ~idle:idle4 in
      Alcotest.(check bool)
        (Printf.sprintf "diff %.2e" (max_abs_diff fast dense))
        true
        (max_abs_diff fast dense <= 1e-6))
    sample_dynamics

let test_warm_start_stays_equivalent () =
  (* A warm start changes the iteration path: both runs stop within [tol] of
     the fixed point, but from different sides, so they agree to a few
     multiples of [tol] rather than the strict cold-start bound. This is why
     warm starting is opt-in and kept off the scheduler's candidate path. *)
  let h = platform_hotspot 4 in
  let engine = Hotspot.inquiry h in
  let solver = Hotspot.solver h in
  ignore (Inquiry.query_with_leakage engine ~dynamic:[| 2.0; 6.0; 1.0; 3.0 |]
            ~idle:idle4 : float array);
  let dynamic = [| 2.1; 5.9; 1.1; 2.9 |] in
  let fast = Inquiry.query_with_leakage ~warm:true engine ~dynamic ~idle:idle4 in
  let dense, _ = Steady.solve_with_leakage solver ~dynamic ~idle:idle4 in
  Alcotest.(check bool)
    (Printf.sprintf "diff %.2e" (max_abs_diff fast dense))
    true
    (max_abs_diff fast dense <= 1e-5)

let test_delta_query_matches_explicit_vector () =
  let h = platform_hotspot 4 in
  let engine = Hotspot.inquiry h in
  let solver = Hotspot.solver h in
  let pe_energy = [| 120.0; 40.0; 0.0; 260.0 |] in
  let base = Inquiry.base_response engine ~power:pe_energy in
  List.iter
    (fun (horizon, pe, extra) ->
      let fast =
        Inquiry.query_delta engine ~base ~horizon ~pe ~extra ~idle:idle4
      in
      let dynamic =
        Array.mapi
          (fun i e ->
            (e /. horizon) +. if i = pe then extra else 0.0)
          pe_energy
      in
      let dense, _ = Steady.solve_with_leakage solver ~dynamic ~idle:idle4 in
      Alcotest.(check bool)
        (Printf.sprintf "pe %d horizon %.0f: diff %.2e" pe horizon
           (max_abs_diff fast dense))
        true
        (max_abs_diff fast dense <= 1e-6))
    [ (100.0, 0, 4.0); (63.0, 2, 7.7); (412.0, 3, 0.5); (57.0, 1, 0.0) ]

(* Replay the inquiry stream of a real scheduling run on the paper's
   benchmarks: accumulate committed PE energies in start order and issue the
   candidate inquiry each entry would have produced, fast vs dense. *)
let test_benchmark_replay_equivalence () =
  List.iter
    (fun bench ->
      let graph = Benchmarks.load bench in
      let pes = platform_pes 4 in
      let h = platform_hotspot 4 in
      let engine = Hotspot.inquiry h in
      let solver = Hotspot.solver h in
      let s =
        List_sched.run ~hotspot:h ~graph ~lib:platform_lib ~pes
          ~policy:Policy.Thermal_aware ()
      in
      let order =
        List.sort
          (fun (a : Schedule.entry) b -> compare (a.start, a.task) (b.start, b.task))
          (Array.to_list s.Schedule.entries)
      in
      let pe_energy = Array.make 4 0.0 in
      let worst = ref 0.0 in
      List.iter
        (fun (e : Schedule.entry) ->
          let tt = (Tats_taskgraph.Graph.task graph e.Schedule.task).task_type in
          let kind = pes.(e.Schedule.pe).Pe.kind.Pe.kind_id in
          let wcpc = Library.wcpc platform_lib ~task_type:tt ~kind in
          let horizon = Float.max e.Schedule.finish 1e-9 in
          let dynamic =
            Array.mapi
              (fun p en ->
                (en /. horizon) +. if p = e.Schedule.pe then wcpc else 0.0)
              pe_energy
          in
          let fast = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
          let dense, _ = Steady.solve_with_leakage solver ~dynamic ~idle:idle4 in
          worst := Float.max !worst (max_abs_diff fast dense);
          pe_energy.(e.Schedule.pe) <- pe_energy.(e.Schedule.pe) +. e.Schedule.energy)
        order;
      Alcotest.(check bool)
        (Printf.sprintf "bench %d worst diff %.2e" bench !worst)
        true (!worst <= 1e-6))
    [ 0; 1; 2 ]

(* --- cache ---------------------------------------------------------------- *)

let test_cache_serves_repeats () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let dynamic = [| 1.5; 2.5; 0.5; 4.5 |] in
  let a = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  let b = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  Alcotest.(check (float 0.0)) "identical result" 0.0 (max_abs_diff a b);
  let s = Inquiry.stats engine in
  Alcotest.(check int) "two inquiries" 2 s.Inquiry.inquiries;
  Alcotest.(check int) "one hit" 1 s.Inquiry.cache_hits;
  (* The cache hands out copies: clobbering a result must not poison it. *)
  a.(0) <- -1000.0;
  let c = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  Alcotest.(check (float 0.0)) "copy, not alias" 0.0 (max_abs_diff b c)

let test_cache_bypassed_on_non_default_settings () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let dynamic = [| 1.0; 2.0; 3.0; 4.0 |] in
  ignore (Inquiry.query_with_leakage ~tol:1e-8 engine ~dynamic ~idle:idle4
          : float array);
  ignore (Inquiry.query_with_leakage ~tol:1e-8 engine ~dynamic ~idle:idle4
          : float array);
  let s = Inquiry.stats engine in
  Alcotest.(check int) "no hits off the default path" 0 s.Inquiry.cache_hits

(* The cache key packs the 1 nW-quantized dynamic and idle vectors: equal
   quantized vectors must share an entry and any one-quantum difference in
   any slot must not. *)
let test_cache_key_quantization () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let dynamic = [| 1.5; 2.25; 0.5; 3.0 |] in
  let hits () = (Inquiry.stats engine).Inquiry.cache_hits in
  let query ~dynamic ~idle =
    ignore (Inquiry.query_with_leakage engine ~dynamic ~idle : float array)
  in
  query ~dynamic ~idle:idle4;
  (* 0.01 nW away: the same quantum. *)
  let near = Array.map (fun p -> p +. 1e-11) dynamic in
  query ~dynamic:near ~idle:(Array.map (fun p -> p -. 1e-11) idle4);
  Alcotest.(check int) "same quantum shares an entry" 1 (hits ());
  for slot = 0 to 7 do
    let bump a i = Array.mapi (fun j p -> if j = i then p +. 1e-9 else p) a in
    let dynamic, idle =
      if slot < 4 then (bump dynamic slot, idle4) else (dynamic, bump idle4 (slot - 4))
    in
    let before = hits () in
    query ~dynamic ~idle;
    Alcotest.(check int) (Printf.sprintf "one quantum off in slot %d misses" slot)
      before (hits ())
  done

let test_cache_key_signed_zero () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let a =
    Inquiry.query_with_leakage engine ~dynamic:[| 0.0; 2.0; 0.0; 1.0 |] ~idle:idle4
  in
  let b =
    Inquiry.query_with_leakage engine ~dynamic:[| -0.0; 2.0; -0.0; 1.0 |]
      ~idle:idle4
  in
  Alcotest.(check int) "-0.0 hits the 0.0 entry" 1
    (Inquiry.stats engine).Inquiry.cache_hits;
  Alcotest.(check (float 0.0)) "same temperatures" 0.0 (max_abs_diff a b)

let test_cache_hit_copies () =
  (* A hit's result is the caller's to mutate: a later hit must still see
     the stored temperatures. *)
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let dynamic = [| 4.0; 0.5; 1.25; 2.0 |] in
  let fresh = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  let expected = Array.copy fresh in
  let hit = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  Array.fill hit 0 (Array.length hit) (-1000.0);
  let again = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  Alcotest.(check int) "two hits" 2 (Inquiry.stats engine).Inquiry.cache_hits;
  Alcotest.(check (float 0.0)) "unpoisoned" 0.0 (max_abs_diff expected again)

(* --- counters ------------------------------------------------------------- *)

let test_create_costs_n_blocks_factored_solves () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let s = Inquiry.stats engine in
  Alcotest.(check int) "factored solves" 4 s.Inquiry.factored_solves;
  Alcotest.(check int) "no inquiries yet" 0 s.Inquiry.inquiries

let test_schedule_run_counts_and_saves () =
  let graph = Benchmarks.load 0 in
  let h = platform_hotspot 4 in
  ignore
    (List_sched.run ~hotspot:h ~graph ~lib:platform_lib ~pes:(platform_pes 4)
       ~policy:Policy.Thermal_aware ()
     : Schedule.t);
  let s = Hotspot.inquiry_stats h in
  Alcotest.(check bool) "inquiries issued" true (s.Inquiry.inquiries > 0);
  Alcotest.(check bool) "delta evaluated" true
    (s.Inquiry.delta_evals = s.Inquiry.inquiries);
  Alcotest.(check bool) "iterations counted" true (s.Inquiry.fp_iterations > 0);
  Alcotest.(check bool)
    (Printf.sprintf "dense %d >= 5 x factored %d" s.Inquiry.dense_solves
       s.Inquiry.factored_solves)
    true
    (s.Inquiry.dense_solves >= 5 * s.Inquiry.factored_solves)

let test_global_stats_aggregate () =
  Inquiry.reset_global_stats ();
  let e1 = Hotspot.inquiry (platform_hotspot 4) in
  let e2 = Hotspot.inquiry (platform_hotspot 4) in
  ignore (Inquiry.query_with_leakage e1 ~dynamic:[| 1.0; 1.0; 1.0; 1.0 |]
            ~idle:idle4 : float array);
  ignore (Inquiry.query_with_leakage e2 ~dynamic:[| 2.0; 2.0; 2.0; 2.0 |]
            ~idle:idle4 : float array);
  let g = Inquiry.global_stats () in
  Alcotest.(check int) "both creations counted" 8 g.Inquiry.factored_solves;
  Alcotest.(check int) "both inquiries counted" 2 g.Inquiry.inquiries;
  Inquiry.reset_global_stats ();
  Alcotest.(check int) "reset" 0 (Inquiry.global_stats ()).Inquiry.inquiries

let test_wall_time_is_wall_clock () =
  (* Regression: the engine's wall_time counter once summed [Sys.time]
     deltas — process CPU time, which under a [--jobs N] pool counts every
     domain's CPU inside every measurement, inflating the counter up to
     N times per query (N² total).  Measured with the wall clock
     ({!Tats_util.Trace.now}) instead, per-domain timings are additive: the
     sum across [jobs] domains cannot exceed [jobs] x the elapsed wall
     time.  A CPU-time counter on 4 busy domains lands around 4x that
     bound, so the assertion discriminates. *)
  let graph = Benchmarks.load 1 in
  let pes = platform_pes 4 in
  let h = platform_hotspot 4 in
  let schedule =
    List_sched.run ~hotspot:h ~graph ~lib:platform_lib ~pes
      ~policy:Policy.Thermal_aware ()
  in
  let engine = Hotspot.inquiry h in
  Inquiry.reset_stats engine;
  let jobs = 4 in
  let t0 = Tats_util.Trace.now () in
  ignore
    (Pool.with_pool ~jobs (fun pool ->
         Montecarlo.analyze ~runs:400 ~pool ~seed:7 ~lib:platform_lib ~hotspot:h
           schedule)
     : Montecarlo.stats);
  let elapsed = Tats_util.Trace.now () -. t0 in
  let s = Inquiry.stats engine in
  Alcotest.(check bool) "engine exercised" true (s.Inquiry.inquiries > 0);
  Alcotest.(check bool) "wall_time positive" true (s.Inquiry.wall_time > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "wall_time %.3f <= %d x elapsed %.3f + slack" s.Inquiry.wall_time
       jobs elapsed)
    true
    (s.Inquiry.wall_time <= (float_of_int jobs *. elapsed) +. 0.5)

let test_validation () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let bad l = Array.make l 1.0 in
  Alcotest.(check bool) "short dynamic rejected" true
    (try
       ignore (Inquiry.query_with_leakage engine ~dynamic:(bad 3) ~idle:idle4
               : float array);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad column rejected" true
    (try ignore (Inquiry.influence_column engine 4 : float array); false
     with Invalid_argument _ -> true);
  let base = Inquiry.base_response engine ~power:(bad 4) in
  Alcotest.(check bool) "bad pe rejected" true
    (try
       ignore (Inquiry.query_delta engine ~base ~horizon:10.0 ~pe:7 ~extra:1.0
                 ~idle:idle4 : float array);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "inquiry"
    [
      ( "influence",
        [
          Alcotest.test_case "columns = unit solutions" `Quick
            test_influence_columns_are_unit_solutions;
          Alcotest.test_case "symmetric positive" `Quick
            test_influence_symmetric_positive;
          Alcotest.test_case "linear temps match dense" `Quick
            test_linear_temperatures_match_dense;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "leakage query matches dense" `Quick
            test_leakage_query_matches_dense;
          Alcotest.test_case "warm start equivalent" `Quick
            test_warm_start_stays_equivalent;
          Alcotest.test_case "delta query matches explicit" `Quick
            test_delta_query_matches_explicit_vector;
          Alcotest.test_case "benchmark replay (Bm1-Bm3)" `Quick
            test_benchmark_replay_equivalence;
        ] );
      ( "cache",
        [
          Alcotest.test_case "serves repeats" `Quick test_cache_serves_repeats;
          Alcotest.test_case "bypassed off defaults" `Quick
            test_cache_bypassed_on_non_default_settings;
          Alcotest.test_case "key quantization" `Quick test_cache_key_quantization;
          Alcotest.test_case "key signed zero" `Quick test_cache_key_signed_zero;
          Alcotest.test_case "hit copies" `Quick test_cache_hit_copies;
        ] );
      ( "counters",
        [
          Alcotest.test_case "creation cost" `Quick
            test_create_costs_n_blocks_factored_solves;
          Alcotest.test_case "schedule run saves solves" `Quick
            test_schedule_run_counts_and_saves;
          Alcotest.test_case "global aggregate" `Quick test_global_stats_aggregate;
          Alcotest.test_case "wall_time is wall clock, not CPU" `Quick
            test_wall_time_is_wall_clock;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
