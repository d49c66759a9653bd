(* Property tests for Rng.derive — the seed-splitting primitive behind every
   deterministic parallel workload (SA restarts, online arrival streams).
   Three claims, each load-bearing for the Pool determinism contract:

   1. distinct (seed, index) pairs yield pairwise-distinct streams over
      their first draws (no accidental stream collisions);
   2. the stream a task draws is independent of the pool size and of the
      order in which domains pick tasks up;
   3. the first draws of pinned (seed, index) pairs never change across
      refactors (golden values computed from this implementation).

   The sweep in (1) uses an in-repo generator loop — Rng itself picks the
   random (seed, index) pairs — rather than an external property-testing
   framework, so the test adds no dependencies and stays reproducible from
   one literal seed. *)

module Rng = Tats_util.Rng
module Pool = Tats_util.Pool

let first_draws seed index k =
  let rng = Rng.derive seed index in
  Array.init k (fun _ -> Rng.bits64 rng)

(* --- 1. pairwise-distinct streams --------------------------------------- *)

let test_pairwise_distinct_fixed () =
  let k = 8 in
  let pairs =
    [ (0, 0); (0, 1); (1, 0); (1, 1); (1, 2); (2, 1); (42, 7); (43, 7); (42, 8) ]
  in
  let streams = List.map (fun (s, i) -> ((s, i), first_draws s i k)) pairs in
  List.iteri
    (fun a ((sa, ia), da) ->
      List.iteri
        (fun b ((sb, ib), db) ->
          if a < b then
            Alcotest.(check bool)
              (Printf.sprintf "streams (%d,%d) vs (%d,%d) differ" sa ia sb ib)
              false (da = db))
        streams)
    streams

let test_pairwise_distinct_random_sweep () =
  (* 64 random (seed, index) pairs from one meta-generator; any first-k
     collision between distinct pairs fails. With 64-bit state a collision
     over 4 draws is (barring a derive bug) impossible. *)
  let meta = Rng.create 2005 in
  let n = 64 in
  let pairs =
    Array.init n (fun _ -> (Rng.int meta 1_000_000, Rng.int meta 1024))
  in
  let tbl = Hashtbl.create n in
  Array.iter
    (fun (s, i) ->
      let d = first_draws s i 4 in
      match Hashtbl.find_opt tbl d with
      | Some (s', i') when (s', i') <> (s, i) ->
          Alcotest.failf "stream collision: derive %d %d = derive %d %d" s i s' i'
      | Some _ | None -> Hashtbl.replace tbl d (s, i))
    pairs;
  (* Every distinct pair registered a distinct stream. *)
  let distinct_pairs =
    List.length
      (List.sort_uniq compare (Array.to_list pairs))
  in
  Alcotest.(check int) "one stream per distinct pair" distinct_pairs
    (Hashtbl.length tbl)

(* --- 2. pool-size / order independence ----------------------------------- *)

let derive_batch ~jobs ~tasks ~draws seed =
  Pool.with_pool ~jobs (fun pool ->
      Pool.parallel_mapi ~chunk:1 pool
        (fun i () ->
          let rng = Rng.derive seed i in
          Array.init draws (fun _ -> Rng.bits64 rng))
        (Array.make tasks ()))

let test_jobs_independent () =
  let reference = derive_batch ~jobs:1 ~tasks:32 ~draws:16 123 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d matches jobs 1" jobs)
        true
        (derive_batch ~jobs ~tasks:32 ~draws:16 123 = reference))
    [ 2; 4 ]

let test_order_independent () =
  (* Deriving in reverse order must produce the same per-index streams —
     no hidden shared state is advanced by a derive. *)
  let forward = Array.init 16 (fun i -> first_draws 9 i 8) in
  let backward = Array.init 16 (fun i -> first_draws 9 (15 - i) 8) in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "index %d order-independent" i)
        true
        (d = backward.(15 - i)))
    forward

(* --- 3. golden first draws ----------------------------------------------- *)

(* Computed from this implementation once; any change to the SplitMix64
   landing breaks every recorded experiment seed, so it must be loud. *)
let goldens =
  [
    ( (42, 0),
      [|
        6332618229526065668L;
        -816328817471504299L;
        8971565426155258802L;
        1242533817266198696L;
      |] );
    ( (42, 1),
      [|
        -245134149879684690L;
        5693819483401481853L;
        -9098865275727344972L;
        -5813066727180184615L;
      |] );
    ( (7, 3),
      [|
        -5852021776408612484L;
        4270312243260898756L;
        7932748853614185806L;
        -2482418391048538640L;
      |] );
  ]

let test_golden_first_draws () =
  List.iter
    (fun ((seed, index), expected) ->
      let got = first_draws seed index (Array.length expected) in
      Array.iteri
        (fun k e ->
          Alcotest.(check int64)
            (Printf.sprintf "derive %d %d draw %d" seed index k)
            e got.(k))
        expected)
    goldens

let () =
  Runner.run "props"
    [
      ( "rng-derive",
        [
          Alcotest.test_case "fixed pairs pairwise distinct" `Quick
            test_pairwise_distinct_fixed;
          Alcotest.test_case "random sweep pairwise distinct" `Quick
            test_pairwise_distinct_random_sweep;
          Alcotest.test_case "independent of pool size" `Quick
            test_jobs_independent;
          Alcotest.test_case "independent of derive order" `Quick
            test_order_independent;
          Alcotest.test_case "golden first draws stable" `Quick
            test_golden_first_draws;
        ] );
    ]
