(* Adversarial / randomized tests for Tats_util.Pool. The deterministic
   contract (positional results, index-ordered reduction, lowest-index
   exception, inline nesting) is easy to satisfy on friendly inputs; these
   trials attack it with randomized task durations — so domains finish out
   of index order — and randomized exception placements, across several
   pool sizes and chunkings, all driven by the in-repo Rng (no new test
   dependencies). *)

module Pool = Tats_util.Pool
module Rng = Tats_util.Rng

(* A busy-wait calibrated in work units, not wall time: random per-task
   spin counts scramble completion order without making the test slow or
   timing-sensitive. Returns a value derived from the spinning so the
   loop cannot be optimized away. *)
let spin units =
  let acc = ref 0 in
  for i = 1 to units * 500 do
    acc := (!acc + i) land 0xffff
  done;
  !acc

exception Planted of int

(* Pool sizes oversubscribed relative to most CI hosts, so domains
   interleave adversarially. *)
let job_sizes = [| 1; 2; 4; 8 |]
let pick_jobs meta = job_sizes.(Rng.int meta (Array.length job_sizes))

let test_random_durations_positional () =
  let meta = Rng.create 31 in
  for trial = 1 to 8 do
    let n = 1 + Rng.int meta 200 in
    let jobs = pick_jobs meta in
    let chunk = 1 + Rng.int meta 8 in
    let units = Array.init n (fun _ -> Rng.int meta 40) in
    let got =
      Pool.with_pool ~jobs (fun pool ->
          Pool.parallel_mapi ~chunk pool
            (fun i () ->
              let noise = spin units.(i) in
              (i * 3) + (noise - noise))
            (Array.make n ()))
    in
    Alcotest.(check (array int))
      (Printf.sprintf "trial %d: positional despite scrambled durations" trial)
      (Array.init n (fun i -> i * 3))
      got
  done

let test_random_durations_reduce_order () =
  (* parallel_for_reduce must fold in index order even when high indices
     finish first: string concatenation is order-sensitive, so any
     reordering is visible. *)
  let meta = Rng.create 77 in
  for trial = 1 to 6 do
    let n = 1 + Rng.int meta 60 in
    let jobs = pick_jobs meta in
    let units = Array.init n (fun _ -> Rng.int meta 30) in
    let got =
      Pool.with_pool ~jobs (fun pool ->
          Pool.parallel_for_reduce ~chunk:1 pool ~n ~init:"" ~combine:( ^ )
            (fun i ->
              ignore (spin units.(i));
              Printf.sprintf "%d;" i))
    in
    let expected =
      String.concat "" (List.init n (fun i -> Printf.sprintf "%d;" i))
    in
    Alcotest.(check string)
      (Printf.sprintf "trial %d: reduction in index order" trial)
      expected got
  done

let test_random_exception_placement () =
  (* Plant 1-4 failures at random indices with random durations; the
     surfaced exception must always carry the lowest planted index, no
     matter which domain hits its failure first. *)
  let meta = Rng.create 1312 in
  for trial = 1 to 10 do
    let n = 16 + Rng.int meta 120 in
    let jobs = pick_jobs meta in
    let n_failures = 1 + Rng.int meta 4 in
    let failures =
      Array.to_list (Array.init n_failures (fun _ -> Rng.int meta n))
    in
    let lowest = List.fold_left Stdlib.min n failures in
    let units = Array.init n (fun _ -> Rng.int meta 25) in
    let result =
      try
        Pool.with_pool ~jobs (fun pool ->
            ignore
              (Pool.parallel_mapi ~chunk:1 pool
                 (fun i () ->
                   ignore (spin units.(i));
                   if List.mem i failures then raise (Planted i);
                   i)
                 (Array.make n ())));
        None
      with Planted i -> Some i
    in
    Alcotest.(check (option int))
      (Printf.sprintf "trial %d: lowest of %d planted failures wins" trial
         n_failures)
      (Some lowest) result
  done

let test_pool_survives_adversarial_batches () =
  (* Alternate failing and clean batches on one pool: a failure must not
     poison the workers for subsequent batches. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 5 do
        (try
           ignore
             (Pool.parallel_mapi ~chunk:1 pool
                (fun i () -> if i = round then raise (Planted i) else i)
                (Array.make 16 ()))
         with Planted _ -> ());
        let ok = Pool.parallel_map pool (fun x -> x + round) (Array.init 16 Fun.id) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d: clean batch after failure" round)
          (Array.init 16 (fun i -> i + round))
          ok
      done)

(* --- nested submission --------------------------------------------------- *)

(* Nested parallel_map calls must degrade to inline execution — never
   deadlock waiting for workers that are all busy waiting. The wall-clock
   bound is the deadlock detector: the work itself is milliseconds, so a
   generous bound only trips when a nested batch actually blocks. *)
let nested_deadline_s = 60.0

let test_nested_no_deadlock () =
  let t0 = Unix.gettimeofday () in
  let meta = Rng.create 4242 in
  Pool.with_pool ~jobs:4 (fun pool ->
      for _trial = 1 to 4 do
        let outer = 8 + Rng.int meta 8 in
        let inner = 8 + Rng.int meta 8 in
        let got =
          Pool.parallel_mapi ~chunk:1 pool
            (fun i () ->
              (* Every outer task submits its own batch to the same pool. *)
              let sub =
                Pool.parallel_mapi ~chunk:1 pool
                  (fun j () ->
                    ignore (spin (Rng.int meta 5 land 3));
                    i + j)
                  (Array.make inner ())
              in
              Array.fold_left ( + ) 0 sub)
            (Array.make outer ())
        in
        let expected =
          Array.init outer (fun i ->
              (i * inner) + (inner * (inner - 1) / 2))
        in
        Alcotest.(check (array int)) "nested results" expected got
      done);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "no deadlock (finished in %.1f s < %.0f s)" elapsed
       nested_deadline_s)
    true
    (elapsed < nested_deadline_s)

let test_doubly_nested_inline () =
  (* Two levels of nesting still inline and still return positionally. *)
  let t0 = Unix.gettimeofday () in
  Pool.with_pool ~jobs:3 (fun pool ->
      let got =
        Pool.parallel_mapi ~chunk:1 pool
          (fun i () ->
            Pool.parallel_mapi ~chunk:1 pool
              (fun j () ->
                let deep =
                  Pool.parallel_map pool (fun x -> x * x) (Array.init 4 Fun.id)
                in
                (i * 10) + j + deep.(3))
              (Array.make 3 ())
            |> Array.fold_left ( + ) 0)
          (Array.make 5 ())
      in
      let expected = Array.init 5 (fun i -> (3 * ((i * 10) + 9)) + 3) in
      Alcotest.(check (array int)) "doubly nested results" expected got);
  Alcotest.(check bool) "bounded time" true
    (Unix.gettimeofday () -. t0 < nested_deadline_s)

(* --- reduction property under any claim order ---------------------------- *)

let test_reduce_bit_identical_grid () =
  (* parallel_for_reduce with a non-commutative, non-associative combine
     must equal the sequential fold bit for bit at every (jobs, chunk)
     configuration. Floating-point combine makes any reassociation or
     reordering visible at the ulp level. *)
  let meta = Rng.create 9090 in
  for trial = 1 to 3 do
    let n = 50 + Rng.int meta 150 in
    let values = Array.init n (fun _ -> Rng.uniform meta (-1.0) 1.0) in
    let units = Array.init n (fun _ -> Rng.int meta 10) in
    (* Pure in [i]: safe to run on any domain, any number of times. *)
    let body i =
      ignore (spin units.(i));
      sin ((values.(i) *. 3.7) +. float_of_int i)
    in
    let combine acc v = (acc /. 3.0) +. (v *. v) -. (acc *. v) in
    let expected =
      Array.fold_left combine 0.5 (Array.init n (fun i -> body i))
    in
    List.iter
      (fun jobs ->
        List.iter
          (fun chunk ->
            let got =
              Pool.with_pool ~jobs (fun pool ->
                  Pool.parallel_for_reduce ?chunk pool ~n ~init:0.5 ~combine
                    body)
            in
            Alcotest.(check (float 0.0))
              (Printf.sprintf "trial %d: jobs %d chunk %s bit-identical" trial
                 jobs
                 (match chunk with Some c -> string_of_int c | None -> "auto"))
              expected got)
          [ Some 1; Some 7; None ])
      [ 1; 2; 4; 8 ]
  done

let test_nested_submission_during_steal () =
  (* Many cheap outer tasks at chunk:1 on an oversubscribed pool: every
     index is its own claim, spread over all domains, so the nested
     submissions below fire from several domains at once. The nested
     calls must inline and stay positional. *)
  let meta = Rng.create 60606 in
  Pool.with_pool ~jobs:8 (fun pool ->
      for _trial = 1 to 3 do
        let outer = 32 + Rng.int meta 32 in
        let inner = 4 + Rng.int meta 8 in
        let units = Array.init outer (fun _ -> Rng.int meta 20) in
        let got =
          Pool.parallel_mapi ~chunk:1 pool
            (fun i () ->
              ignore (spin units.(i));
              let sub =
                Pool.parallel_mapi ~chunk:1 pool
                  (fun j () -> (i * 100) + j)
                  (Array.make inner ())
              in
              Array.fold_left ( + ) 0 sub)
            (Array.make outer ())
        in
        let expected =
          Array.init outer (fun i ->
              (i * 100 * inner) + (inner * (inner - 1) / 2))
        in
        Alcotest.(check (array int)) "nested-during-steal results" expected got
      done)

(* --- serialized batches ------------------------------------------------- *)

let test_concurrent_submitters_serialized () =
  (* Two domains each submit 200 batches to one pool. Batches from
     different submitters must not overlap: a task that starts while a
     task of another batch is still running is a violation. *)
  let lock = Mutex.create () in
  let active_batch = ref (-1) and active_tasks = ref 0 in
  let overlaps = Atomic.make 0 in
  let enter id =
    Mutex.lock lock;
    if !active_tasks > 0 && !active_batch <> id then Atomic.incr overlaps;
    active_batch := id;
    incr active_tasks;
    Mutex.unlock lock
  in
  let leave () =
    Mutex.lock lock;
    decr active_tasks;
    Mutex.unlock lock
  in
  let rounds = 200 and n = 6 in
  Pool.with_pool ~jobs:2 (fun pool ->
      let submitter who =
        Domain.spawn (fun () ->
            List.init rounds (fun r ->
                let id = (who * rounds) + r in
                Pool.parallel_mapi ~chunk:1 pool
                  (fun i () ->
                    enter id;
                    ignore (spin 10);
                    leave ();
                    (id * n) + i)
                  (Array.make n ())))
      in
      let a = submitter 0 and b = submitter 1 in
      let got = Domain.join a @ Domain.join b in
      List.iteri
        (fun id res ->
          Alcotest.(check (array int))
            (Printf.sprintf "batch %d positional" id)
            (Array.init n (fun i -> (id * n) + i))
            res)
        got);
  Alcotest.(check int) "no two batches overlap" 0 (Atomic.get overlaps)

let test_back_to_back_pairs () =
  (* The dispatcher's shape: thousands of 2-element batches in a row. A
     lost wake-up hangs here; a worker that runs a grain of an already
     retired batch shows up as an extra call. *)
  let batches = 5000 in
  let calls = Atomic.make 0 in
  Pool.with_pool ~jobs:2 (fun pool ->
      for r = 1 to batches do
        let f i =
          Atomic.incr calls;
          (r * 2) + i
        in
        let got = Pool.parallel_mapi pool (fun i () -> f i) [| (); () |] in
        if got <> [| f 0; f 1 |] then
          Alcotest.failf "batch %d: got [|%d; %d|]" r got.(0) got.(1)
      done);
  (* Each batch calls [f] twice in the pool and twice for the expected
     value; the workers are joined, so no late grain can add more. *)
  Alcotest.(check int) "every index ran exactly once" (4 * batches)
    (Atomic.get calls)

(* --- shutdown under load -------------------------------------------------- *)

let test_shutdown_under_load () =
  (* A second domain calls shutdown while a batch is in flight: the batch
     must drain normally (complete, correct results), shutdown must
     return, and the pool must then run inline. *)
  for round = 1 to 3 do
    let pool = Pool.create ~jobs:4 () in
    let n = 400 in
    let started = Atomic.make false in
    let submitter =
      Domain.spawn (fun () ->
          Pool.parallel_mapi ~chunk:1 pool
            (fun i () ->
              Atomic.set started true;
              ignore (spin 5);
              i * 2)
            (Array.make n ()))
    in
    (* Wait for the batch to actually be in flight before tearing down. *)
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    Pool.shutdown pool;
    let got = Domain.join submitter in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d: batch drained despite shutdown" round)
      (Array.init n (fun i -> i * 2))
      got;
    Alcotest.(check (array int))
      (Printf.sprintf "round %d: inline after shutdown-under-load" round)
      [| 1; 2; 3 |]
      (Pool.parallel_map pool (fun x -> x + 1) [| 0; 1; 2 |])
  done

let test_shutdown_from_task_rejected () =
  (* Tearing down the runtime from inside one of its own tasks cannot be
     made deterministic; it must fail loudly instead of deadlocking. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let saw_invalid = ref false in
      ignore
        (Pool.parallel_mapi ~chunk:1 pool
           (fun i () ->
             if i = 0 then (
               try Pool.shutdown pool
               with Invalid_argument _ -> saw_invalid := true);
             i)
           (Array.make 8 ()));
      Alcotest.(check bool) "shutdown inside a task raises Invalid_argument"
        true !saw_invalid)

let () =
  Runner.run "pool_adversarial"
    [
      ( "randomized",
        [
          Alcotest.test_case "positional under random durations" `Quick
            test_random_durations_positional;
          Alcotest.test_case "reduce order under random durations" `Quick
            test_random_durations_reduce_order;
          Alcotest.test_case "lowest-index exception, random placement" `Quick
            test_random_exception_placement;
          Alcotest.test_case "pool survives adversarial batches" `Quick
            test_pool_survives_adversarial_batches;
          Alcotest.test_case "non-commutative reduce bit-identical on grid"
            `Quick test_reduce_bit_identical_grid;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "nested submission never deadlocks" `Quick
            test_nested_no_deadlock;
          Alcotest.test_case "doubly nested inlines" `Quick
            test_doubly_nested_inline;
          Alcotest.test_case "nested submission during steals" `Quick
            test_nested_submission_during_steal;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "concurrent submitters are serialized" `Quick
            test_concurrent_submitters_serialized;
          Alcotest.test_case "5000 back-to-back 2-element batches" `Quick
            test_back_to_back_pairs;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "shutdown under load drains the batch" `Quick
            test_shutdown_under_load;
          Alcotest.test_case "shutdown inside a task is rejected" `Quick
            test_shutdown_from_task_rejected;
        ] );
    ]
