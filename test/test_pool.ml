(* Tests for Tats_util.Pool: the domain pool's determinism contract
   (positional results, index-ordered reduction, lowest-index exception,
   nesting degrades inline), its stats counters, and the end-to-end
   bit-identity of the parallel leakage-inquiry / GA / SA workloads at
   different pool sizes. *)

module Pool = Tats_util.Pool
module Rng = Tats_util.Rng

let with_pool = Pool.with_pool

(* --- parallel_map basics ------------------------------------------------ *)

let test_map_matches_sequential () =
  with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 1000 (fun i -> i) in
      let expected = Array.map (fun x -> (x * x) - 3) xs in
      let got = Pool.parallel_map pool (fun x -> (x * x) - 3) xs in
      Alcotest.(check (array int)) "positional results" expected got)

let test_mapi_indices () =
  with_pool ~jobs:3 (fun pool ->
      let xs = Array.make 257 "x" in
      let got = Pool.parallel_mapi pool (fun i s -> Printf.sprintf "%s%d" s i) xs in
      Array.iteri
        (fun i s ->
          Alcotest.(check string) "index" (Printf.sprintf "x%d" i) s)
        got)

let test_empty_and_singleton () =
  with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||]
        (Pool.parallel_map pool (fun x -> x + 1) [||]);
      Alcotest.(check (array int)) "singleton" [| 43 |]
        (Pool.parallel_map pool (fun x -> x + 1) [| 42 |]))

let test_jobs_one_inline () =
  with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs clamp" 1 (Pool.jobs pool);
      let got = Pool.parallel_map pool (fun x -> 2 * x) (Array.init 10 Fun.id) in
      Alcotest.(check (array int)) "inline map" (Array.init 10 (fun i -> 2 * i)) got)

let test_chunk_choice_irrelevant () =
  with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 100 (fun i -> i) in
      let f x = x * 7 in
      let reference = Pool.parallel_map ~chunk:1 pool f xs in
      List.iter
        (fun chunk ->
          Alcotest.(check (array int))
            (Printf.sprintf "chunk %d" chunk)
            reference
            (Pool.parallel_map ~chunk pool f xs))
        [ 3; 17; 100; 1000 ])

exception Boom of int

let test_exception_lowest_index () =
  with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 64 Fun.id in
      let attempt chunk =
        match
          Pool.parallel_map ~chunk pool
            (fun x -> if x mod 10 = 3 then raise (Boom x) else x)
            xs
        with
        | _ -> Alcotest.fail "expected exception"
        | exception Boom i -> Alcotest.(check int) "lowest index" 3 i
      in
      attempt 1;
      attempt 7)

let test_pool_survives_exception () =
  with_pool ~jobs:2 (fun pool ->
      (try ignore (Pool.parallel_map pool (fun _ -> failwith "die") [| 1; 2; 3 |])
       with Failure _ -> ());
      Alcotest.(check (array int)) "usable after failure" [| 2; 4 |]
        (Pool.parallel_map pool (fun x -> 2 * x) [| 1; 2 |]))

let test_nested_map_inlines () =
  with_pool ~jobs:4 (fun pool ->
      let got =
        Pool.parallel_map pool
          (fun row ->
            (* A task submitting to the same pool must not deadlock. *)
            Array.fold_left ( + ) 0
              (Pool.parallel_map pool (fun x -> row * x) (Array.init 10 Fun.id)))
          (Array.init 8 Fun.id)
      in
      Alcotest.(check (array int)) "nested results"
        (Array.init 8 (fun row -> row * 45))
        got)

let test_for_reduce_order () =
  with_pool ~jobs:4 (fun pool ->
      (* String concatenation is non-commutative: only the index-ordered
         fold produces this. *)
      let s =
        Pool.parallel_for_reduce pool ~n:10 ~init:""
          ~combine:(fun acc x -> acc ^ x)
          string_of_int
      in
      Alcotest.(check string) "index-ordered fold" "0123456789" s;
      let zero =
        Pool.parallel_for_reduce pool ~n:0 ~init:17 ~combine:( + ) (fun i -> i)
      in
      Alcotest.(check int) "n = 0" 17 zero)

let test_shutdown_falls_back_inline () =
  let pool = Pool.create ~jobs:4 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  let got = Pool.parallel_map pool (fun x -> x + 1) (Array.init 5 Fun.id) in
  Alcotest.(check (array int)) "inline after shutdown"
    (Array.init 5 (fun i -> i + 1))
    got

let test_stats_counters () =
  with_pool ~jobs:2 (fun pool ->
      Pool.reset_stats pool;
      ignore (Pool.parallel_map pool (fun x -> x) (Array.init 50 Fun.id));
      ignore (Pool.parallel_map pool (fun x -> x) (Array.init 50 Fun.id));
      let s = Pool.stats pool in
      Alcotest.(check int) "jobs" 2 s.Pool.jobs;
      Alcotest.(check int) "batches" 2 s.Pool.batches;
      Alcotest.(check int) "tasks" 100 s.Pool.tasks;
      Alcotest.(check int) "busy slots" 2 (Array.length s.Pool.busy);
      Alcotest.(check bool) "steals non-negative" true (s.Pool.steals >= 0);
      Alcotest.(check bool) "parks non-negative" true (s.Pool.parks >= 0);
      Alcotest.(check bool) "steals <= tasks" true (s.Pool.steals <= s.Pool.tasks);
      Pool.reset_stats pool;
      let s = Pool.stats pool in
      Alcotest.(check int) "reset batches" 0 s.Pool.batches;
      Alcotest.(check int) "reset tasks" 0 s.Pool.tasks;
      Alcotest.(check int) "reset steals" 0 s.Pool.steals;
      Alcotest.(check int) "reset parks" 0 s.Pool.parks;
      Alcotest.(check bool) "reset steals <= tasks" true
        (s.Pool.steals <= s.Pool.tasks))

(* --- Rng.derive --------------------------------------------------------- *)

let test_derive_pure () =
  let a = Rng.derive 42 7 and b = Rng.derive 42 7 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "pure in (seed, index)" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_derive_decorrelated () =
  let a = Rng.derive 42 0 and b = Rng.derive 42 1 in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr matches
  done;
  Alcotest.(check bool) "neighbouring indices diverge" true (!matches < 4)

let test_derive_negative () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.derive: negative index") (fun () ->
      ignore (Rng.derive 1 (-1)))

(* --- end-to-end determinism of the parallel workloads ------------------- *)

let platform_fixture () =
  let graph = Core.Benchmarks.load 0 in
  let lib = Core.Catalog.platform_library () in
  let pes = Core.Catalog.platform_instances 4 in
  (graph, lib, pes)

let fresh_hotspot () =
  Core.Hotspot.create
    (Core.Grid.layout
       (Array.init 4 (fun i ->
            Core.Block.make ~name:(Printf.sprintf "PE%d" i) ~area:1.6e-5 ())))

(* Concurrent leakage inquiries on one shared facade: seeded power draws
   from one [Rng] stream, solved in parallel. Every answer is a stateless
   fixed point, so the result array must not depend on the pool size. *)
let test_inquiries_bit_identical () =
  let _, _, pes = platform_fixture () in
  let idle =
    Array.map (fun (i : Core.Pe.inst) -> i.Core.Pe.kind.Core.Pe.idle_power) pes
  in
  let rng = Core.Rng.create 11 in
  let draws =
    Array.init 100 (fun _ -> Array.map (fun _ -> Core.Rng.uniform rng 0.5 8.0) idle)
  in
  let run jobs =
    let hotspot = fresh_hotspot () in
    with_pool ~jobs (fun pool ->
        Pool.parallel_map pool
          (fun dynamic ->
            Array.map Int64.bits_of_float
              (Core.Hotspot.inquire_with_leakage hotspot ~dynamic ~idle))
          draws)
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs 1 = jobs %d" jobs)
        true
        (reference = run jobs))
    [ 2; 4; 8 ]

let test_ga_bit_identical () =
  let rng = Core.Rng.create 5 in
  let blocks =
    Array.init 6 (fun i ->
        Core.Block.make ~name:(Printf.sprintf "b%d" i)
          ~area:(Core.Rng.uniform rng 8e-6 2.5e-5)
          ())
  in
  let blocks_area = Array.fold_left (fun a b -> a +. b.Core.Block.area) 0.0 blocks in
  let run jobs =
    with_pool ~jobs (fun pool ->
        let r =
          Core.Ga.run
            ~params:{ Core.Ga.default_params with Core.Ga.generations = 8 }
            ~pool ~seed:42 ~blocks
            ~cost:(Core.Flow.floorplan_cost ~blocks_area)
            ()
        in
        (r.Core.Ga.best_cost, r.Core.Ga.history, r.Core.Ga.best_expr))
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs 1 = jobs %d" jobs)
        true
        (reference = run jobs))
    [ 2; 4; 8 ]

let test_sa_restarts_deterministic () =
  let graph, lib, pes = platform_fixture () in
  let params =
    {
      Core.Sa_mapper.initial_temperature = 20.0;
      cooling = 0.85;
      moves_per_temperature = 20;
      min_temperature = 0.5;
    }
  in
  let run jobs =
    with_pool ~jobs (fun pool ->
        let r =
          Core.Sa_mapper.run_restarts ~params ~pool ~restarts:3 ~seed:1
            ~objective:Core.Sa_mapper.Makespan ~graph ~lib ~pes ()
        in
        (r.Core.Sa_mapper.best_restart, r.Core.Sa_mapper.restart_costs))
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs 1 = jobs %d" jobs)
        true
        (reference = run jobs))
    [ 2; 4; 8 ];
  (* Restart 0 replays the single-chain run with the same seed. *)
  let single =
    Core.Sa_mapper.run ~params ~seed:1 ~objective:Core.Sa_mapper.Makespan
      ~graph ~lib ~pes ()
  in
  let _, costs = run 2 in
  Alcotest.(check (float 0.0)) "restart 0 replays run" single.Core.Sa_mapper.cost
    costs.(0)

(* --- the runner names a hung case ------------------------------------------ *)

(* hang_probe (test/hang_probe.ml) runs one case that deadlocks a pool
   batch, the submitter blocked in Condition.wait. On the SIGTERM that
   test/dune's timeout sends, Runner.run must print the case and exit 124.
   Every wait here is bounded. *)
let test_runner_names_hung_case () =
  let marker = Filename.temp_file "hang_probe" ".started" in
  let log = Filename.temp_file "hang_probe" ".stderr" in
  Sys.remove marker;
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove (List.filter Sys.file_exists [ marker; log ]))
    (fun () ->
      let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process "./hang_probe.exe" [| "hang_probe"; marker |] null
          null err
      in
      Unix.close err;
      Unix.close null;
      let rec wait_until what ready tries =
        if not (ready ()) then
          if tries = 0 then begin
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Alcotest.failf "hang_probe: %s" what
          end
          else begin
            Unix.sleepf 0.05;
            wait_until what ready (tries - 1)
          end
      in
      wait_until "its case never started" (fun () -> Sys.file_exists marker) 400;
      Unix.kill pid Sys.sigterm;
      let status = ref None in
      wait_until "still running 10 s after SIGTERM"
        (fun () ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> false
          | _, s ->
              status := Some s;
              true)
        200;
      Alcotest.(check bool) "exit 124" true (!status = Some (Unix.WEXITED 124));
      let ic = open_in log in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check string) "names the case"
        "killed while running: pool/deadlocked batch" line)

let () =
  Runner.run "pool"
    [
      ( "parallel_map",
        [
          Alcotest.test_case "matches sequential map" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "mapi indices" `Quick test_mapi_indices;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
          Alcotest.test_case "jobs=1 inline" `Quick test_jobs_one_inline;
          Alcotest.test_case "chunking never changes results" `Quick
            test_chunk_choice_irrelevant;
          Alcotest.test_case "lowest-index exception" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "pool survives task failure" `Quick
            test_pool_survives_exception;
          Alcotest.test_case "nested map inlines" `Quick test_nested_map_inlines;
          Alcotest.test_case "for_reduce folds in order" `Quick
            test_for_reduce_order;
          Alcotest.test_case "shutdown falls back inline" `Quick
            test_shutdown_falls_back_inline;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
        ] );
      ( "rng-derive",
        [
          Alcotest.test_case "pure function of (seed, index)" `Quick
            test_derive_pure;
          Alcotest.test_case "indices decorrelated" `Quick test_derive_decorrelated;
          Alcotest.test_case "negative index rejected" `Quick test_derive_negative;
        ] );
      ( "workload-determinism",
        [
          Alcotest.test_case "leakage inquiries bit-identical jobs 1 vs 2/4/8"
            `Quick test_inquiries_bit_identical;
          Alcotest.test_case "GA bit-identical jobs 1 vs 2/4/8" `Quick
            test_ga_bit_identical;
          Alcotest.test_case "SA restarts deterministic" `Quick
            test_sa_restarts_deterministic;
        ] );
      ( "runner",
        [
          Alcotest.test_case "names a hung case" `Quick
            test_runner_names_hung_case;
        ] );
    ]
