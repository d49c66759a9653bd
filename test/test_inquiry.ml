(* Tests for the thermal inquiry engine: influence-matrix extraction, the
   numerical-equivalence guarantee against the dense Steady path (linear,
   leakage fixed point, delta evaluation), the exactness of leakage
   inquiries and per-step tables, and the instrumentation counters. *)

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

let bits a = Array.map Int64.bits_of_float a

let check_bits what expected actual =
  Alcotest.(check (array int64)) what (bits expected) (bits actual)

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

(* A leakage inquiry stores nothing: an engine that answered other
   vectors first answers bit-equal to a fresh one, and both match the
   dense path. *)
let test_earlier_queries_change_nothing () =
  let h = platform_hotspot 4 in
  let engine = Hotspot.inquiry h in
  let solver = Hotspot.solver h in
  ignore (Inquiry.query_with_leakage engine ~dynamic:[| 2.0; 6.0; 1.0; 3.0 |]
            ~idle:idle4 : float array);
  let dynamic = [| 2.1; 5.9; 1.1; 2.9 |] in
  let fast = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  let fresh =
    Inquiry.query_with_leakage (Hotspot.inquiry (platform_hotspot 4)) ~dynamic
      ~idle:idle4
  in
  check_bits "warm engine = fresh engine" fresh fast;
  let dense, _ = Steady.solve_with_leakage solver ~dynamic ~idle:idle4 in
  Alcotest.(check bool)
    (Printf.sprintf "diff %.2e" (max_abs_diff fast dense))
    true
    (max_abs_diff fast dense <= 1e-6)

(* A step inquiry's mean matches the dense path's on the vector it
   stands for. *)
let test_step_inquiry_matches_explicit_vector () =
  let h = platform_hotspot 4 in
  let engine = Hotspot.inquiry h in
  let solver = Hotspot.solver h in
  let pe_energy = [| 120.0; 40.0; 0.0; 260.0 |] in
  let step = Inquiry.step engine ~power:pe_energy ~idle:idle4 in
  let tally = Inquiry.tally () in
  List.iter
    (fun (horizon, pe, extra) ->
      let fast =
        Inquiry.ask engine step tally ~slots:[| Inquiry.no_slot |] 0 ~horizon
          ~pe ~extra
      in
      let dynamic =
        Array.mapi
          (fun i e ->
            (e /. horizon) +. if i = pe then extra else 0.0)
          pe_energy
      in
      let dense, _ = Steady.solve_with_leakage solver ~dynamic ~idle:idle4 in
      let diff = Float.abs (fast -. Tats_util.Stats.mean dense) in
      Alcotest.(check bool)
        (Printf.sprintf "pe %d horizon %.0f: diff %.2e" pe horizon diff)
        true (diff <= 1e-6))
    [ (100.0, 0, 4.0); (63.0, 2, 7.7); (412.0, 3, 0.5); (57.0, 1, 0.0) ]

(* Candidates of one step with the same (PE, horizon, task power) share one
   slot: the second runs no fixed point and answers with the first's
   mean. A different horizon, power or PE, or another step's table, is
   another slot. *)
let test_step_slots_are_shared () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let pe_energy = [| 120.0; 40.0; 0.0; 260.0 |] in
  let tally = Inquiry.tally () in
  let ask ?(power = pe_energy) ~horizon ~pe ~extra () =
    Inquiry.ask engine (Inquiry.step engine ~power ~idle:idle4) tally
      ~slots:[| Inquiry.no_slot |] 0 ~horizon ~pe ~extra
  in
  let fp () =
    Inquiry.flush engine tally;
    (Inquiry.stats engine).Inquiry.fp_iterations
  in
  let first = ask ~horizon:100.0 ~pe:1 ~extra:4.0 () in
  let steps = fp () in
  Alcotest.(check bool) "first runs its fixed point" true (steps > 0);
  let again = ask ~horizon:100.0 ~pe:1 ~extra:4.0 () in
  Alcotest.(check (float 0.0)) "same mean" first again;
  Alcotest.(check int) "shared: no step" steps (fp ());
  Alcotest.(check int) "a hit" 1 (Inquiry.stats engine).Inquiry.cache_hits;
  List.iter
    (fun (what, f) ->
      let before = fp () in
      ignore (f () : float);
      Alcotest.(check bool) (what ^ ": a slot of its own") true (fp () > before))
    [
      ("horizon", fun () -> ask ~horizon:101.0 ~pe:1 ~extra:4.0 ());
      ("power", fun () -> ask ~horizon:100.0 ~pe:1 ~extra:4.5 ());
      ("pe", fun () -> ask ~horizon:100.0 ~pe:2 ~extra:4.0 ());
      ( "step",
        fun () ->
          ask ~power:[| 120.0; 40.0; 0.0; 261.0 |] ~horizon:100.0 ~pe:1
            ~extra:4.0 () );
    ]

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

(* --- exactness ------------------------------------------------------------ *)

(* A repeat is bit-equal to the first answer, also after 1000 other
   queries, and is a fresh solve: no hit, the same steps again. *)
let test_repeats_are_bit_equal () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let dynamic = [| 1.5; 2.5; 0.5; 4.5 |] in
  let a = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  let steps = (Inquiry.stats engine).Inquiry.fp_iterations in
  let b = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  check_bits "immediate repeat" a b;
  let s = Inquiry.stats engine in
  Alcotest.(check int) "two inquiries" 2 s.Inquiry.inquiries;
  Alcotest.(check int) "no hits" 0 s.Inquiry.cache_hits;
  Alcotest.(check int) "solved twice" (2 * steps) s.Inquiry.fp_iterations;
  for k = 1 to 1000 do
    let x = float_of_int k *. 1e-3 in
    ignore
      (Inquiry.query_with_leakage engine
         ~dynamic:[| 1.5 +. x; 2.5; 0.5 -. (x /. 4.0); 4.5 |]
         ~idle:idle4
        : float array)
  done;
  check_bits "after 1000 others" a
    (Inquiry.query_with_leakage engine ~dynamic ~idle:idle4)

(* [max_iter] only bounds the steps: a looser bound than the default
   converges on the same iterate. *)
let test_max_iter_only_bounds () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let dynamic = [| 1.0; 2.0; 3.0; 4.0 |] in
  let default = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  check_bits "max_iter 1000" default
    (Inquiry.query_with_leakage ~max_iter:1000 engine ~dynamic ~idle:idle4)

(* A vector 0.01 nW off an earlier one, on every entry, is answered for
   itself: bit-equal to a fresh engine's answer for that exact vector,
   whatever the engine answered before. *)
let test_neighbour_answered_exactly () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let dynamic = [| 1.5; 2.25; 0.5; 3.0 |] in
  ignore (Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 : float array);
  let near = Array.map (fun p -> p +. 1e-11) dynamic in
  let near_idle = Array.map (fun p -> p -. 1e-11) idle4 in
  let fresh =
    Inquiry.query_with_leakage (Hotspot.inquiry (platform_hotspot 4))
      ~dynamic:near ~idle:near_idle
  in
  check_bits "neighbour = fresh solve"
    fresh (Inquiry.query_with_leakage engine ~dynamic:near ~idle:near_idle)

let test_signed_zero () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let a =
    Inquiry.query_with_leakage engine ~dynamic:[| 0.0; 2.0; 0.0; 1.0 |] ~idle:idle4
  in
  let b =
    Inquiry.query_with_leakage engine ~dynamic:[| -0.0; 2.0; -0.0; 1.0 |]
      ~idle:idle4
  in
  Alcotest.(check (float 0.0)) "same temperatures" 0.0 (max_abs_diff a b)

let test_results_are_the_callers () =
  (* The returned array is the caller's to mutate: a later answer must
     not see it. *)
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let dynamic = [| 4.0; 0.5; 1.25; 2.0 |] in
  let first = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  let expected = Array.copy first in
  Array.fill first 0 (Array.length first) (-1000.0);
  let again = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
  check_bits "unpoisoned" expected again

(* A resumed ask runs its fixed point in the tally's work buffers: it
   allocates only its bookkeeping (the resumed iterate's record, the
   closures it hands [Steady.fixed_point], the returned iterate and the
   converged state), not the fixed point's power and temperature vectors,
   its dynamic power or a copy of the stored iterate: 48 words per ask on
   4 blocks, where allocating those five vectors per call took 71. Its
   answer is the uninterrupted one, bit for bit. *)
let test_resumed_ask_allocation () =
  let pe_energy = [| 120.0; 40.0; 0.0; 260.0 |] in
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let step = Inquiry.step engine ~power:pe_energy ~idle:idle4 in
  let tally = Inquiry.tally () in
  let n = 200 in
  let slots = Array.make n Inquiry.no_slot in
  let extra i = 1.0 +. (0.01 *. float_of_int i) in
  let ask ?stop i =
    Inquiry.ask ?stop engine step tally ~slots i ~horizon:100.0 ~pe:(i mod 4)
      ~extra:(extra i)
  in
  (* Stop every inquiry at its second iterate. *)
  for i = 0 to n - 1 do
    let seen = ref 0 in
    ignore
      (ask i ~stop:(fun _ -> incr seen; !seen > 2) : float)
  done;
  Array.iter
    (fun slot ->
      Alcotest.(check bool) "stopped" true (Inquiry.iterate slot <> None))
    slots;
  let answers = Array.make n 0.0 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    answers.(i) <- ask i
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%g words per resumed ask" words)
    true (words <= 56.0);
  let uninterrupted = Hotspot.inquiry (platform_hotspot 4) in
  let step' = Inquiry.step uninterrupted ~power:pe_energy ~idle:idle4 in
  Array.iteri
    (fun i a ->
      check_bits
        (Printf.sprintf "candidate %d" i)
        [| Inquiry.ask uninterrupted step' (Inquiry.tally ())
             ~slots:[| Inquiry.no_slot |] 0 ~horizon:100.0 ~pe:(i mod 4)
             ~extra:(extra i) |]
        [| a |])
    answers

(* --- row-major kernel vs the column-major loops ----------------------------- *)

(* The engine's linear solve and base response as they were before the
   influence matrix went row-major, transcribed verbatim over the columns
   [influence_column] hands out. *)
let column_apply ~ambient cols power dst =
  let n = Array.length cols in
  Array.fill dst 0 n ambient;
  for j = 0 to n - 1 do
    let pj = power.(j) in
    if pj <> 0.0 then begin
      let col = cols.(j) in
      for i = 0 to n - 1 do
        dst.(i) <- dst.(i) +. (pj *. col.(i))
      done
    end
  done

let column_base_response cols power =
  let n = Array.length cols in
  let response = Array.make n 0.0 in
  for j = 0 to n - 1 do
    let pj = power.(j) in
    if pj <> 0.0 then begin
      let col = cols.(j) in
      for i = 0 to n - 1 do
        response.(i) <- response.(i) +. (pj *. col.(i))
      done
    end
  done;
  response

let test_row_major_matches_column_loops () =
  List.iter
    (fun (name, seed) ->
      let platform = Option.get (Catalog.platform_named name) in
      let engine = Hotspot.inquiry (Tats_cosynth.Flow.platform_facade platform) in
      let n = Inquiry.n_blocks engine in
      let package = Inquiry.package engine in
      let ambient = package.Tats_thermal.Package.ambient in
      let cols = Array.init n (Inquiry.influence_column engine) in
      let rng = Random.State.make [| seed |] in
      let idle = Array.init n (fun _ -> Random.State.float rng 1.0) in
      for trial = 0 to 24 do
        (* Zero-power blocks of either sign, an all-zero vector included. *)
        let dynamic =
          Array.init n (fun b ->
              if trial = 0 || (b + trial) mod 3 = 0 then if trial mod 2 = 0 then 0.0 else -0.0
              else Random.State.float rng 9.0)
        in
        let what = Printf.sprintf "%s trial %d" name trial in
        let expected = Array.make n 0.0 in
        column_apply ~ambient cols dynamic expected;
        check_bits (what ^ ": temperatures") expected
          (Inquiry.temperatures engine ~power:dynamic);
        check_bits (what ^ ": base response")
          (column_base_response cols dynamic)
          (Inquiry.response (Inquiry.base_response engine ~power:dynamic));
        let leaky =
          Steady.fixed_point ~package ~solve:(column_apply ~ambient cols) ~dynamic ~idle ()
        in
        check_bits (what ^ ": query_with_leakage") leaky.Steady.temps
          (Inquiry.query_with_leakage engine ~dynamic ~idle)
      done)
    [ ("std4", 51); ("mixed6", 52) ]

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
     ({!Tats_util.Trace.now}) instead, each domain's query intervals are
     disjoint and lie inside the elapsed time, so the sum across [jobs]
     domains cannot exceed [jobs] x the elapsed wall time, up to the
     clock's own slack (1 ms here).  Two domains, so that on a host of
     two or more cores both run queries at once: a CPU-time counter then
     takes in the other domain's CPU time in each measurement and lands
     near twice the bound (a [Sys.time] clock failed the case in 5 of 5
     runs on 2 vCPUs, at 0.25-0.29 s against 0.21 s).  The batches run
     for at least 100 ms, so that scheduling noise is small against that
     margin.  On a 1-core host process CPU time never exceeds wall time,
     and the case cannot tell the two clocks apart. *)
  let h = platform_hotspot 4 in
  let engine = Hotspot.inquiry h in
  let rng = Tats_util.Rng.create 7 in
  let draws =
    Array.init 2000 (fun _ ->
        Array.map (fun _ -> Tats_util.Rng.uniform rng 0.5 8.0) idle4)
  in
  let jobs = 2 in
  let t0 = Tats_util.Trace.now () in
  Pool.with_pool ~jobs (fun pool ->
      while Tats_util.Trace.now () -. t0 < 0.1 do
        ignore
          (Pool.parallel_map pool
             (fun dynamic -> Hotspot.inquire_with_leakage h ~dynamic ~idle:idle4)
             draws
            : float array array)
      done);
  let elapsed = Tats_util.Trace.now () -. t0 in
  let s = Inquiry.stats engine in
  Alcotest.(check bool) "engine exercised" true (s.Inquiry.inquiries >= 2000);
  Alcotest.(check bool) "wall_time positive" true (s.Inquiry.wall_time > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "wall_time %.4f <= %d x elapsed %.4f + 1 ms (%d inquiries)"
       s.Inquiry.wall_time jobs elapsed s.Inquiry.inquiries)
    true
    (s.Inquiry.wall_time <= (float_of_int jobs *. elapsed) +. 0.001)

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
  let step = Inquiry.step engine ~power:(bad 4) ~idle:idle4 in
  let ask ~horizon ~pe =
    try
      ignore
        (Inquiry.ask engine step (Inquiry.tally ()) ~slots:[| Inquiry.no_slot |]
           0 ~horizon ~pe ~extra:1.0
          : float);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad pe rejected" true (ask ~horizon:10.0 ~pe:7);
  Alcotest.(check bool) "non-positive horizon rejected" true
    (ask ~horizon:0.0 ~pe:1);
  Alcotest.(check bool) "short step vector rejected" true
    (try
       ignore (Inquiry.step engine ~power:(bad 3) ~idle:idle4 : Inquiry.step);
       false
     with Invalid_argument _ -> true)

let () =
  Runner.run "inquiry"
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
          Alcotest.test_case "earlier queries change nothing" `Quick
            test_earlier_queries_change_nothing;
          Alcotest.test_case "step inquiry matches explicit" `Quick
            test_step_inquiry_matches_explicit_vector;
          Alcotest.test_case "benchmark replay (Bm1-Bm3)" `Quick
            test_benchmark_replay_equivalence;
        ] );
      ( "exactness",
        [
          Alcotest.test_case "repeats are bit-equal" `Quick
            test_repeats_are_bit_equal;
          Alcotest.test_case "max_iter only bounds" `Quick test_max_iter_only_bounds;
          Alcotest.test_case "neighbour answered exactly" `Quick
            test_neighbour_answered_exactly;
          Alcotest.test_case "signed zero" `Quick test_signed_zero;
          Alcotest.test_case "row-major = column loops (bitwise)" `Quick
            test_row_major_matches_column_loops;
          Alcotest.test_case "results are the caller's" `Quick
            test_results_are_the_callers;
          Alcotest.test_case "step slots are shared" `Quick
            test_step_slots_are_shared;
          Alcotest.test_case "resumed ask: no work buffers" `Quick
            test_resumed_ask_allocation;
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
