(* Tests for Tats_util: the deterministic RNG and the statistics helpers. *)

module Rng = Tats_util.Rng
module Stats = Tats_util.Stats

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng ---------------------------------------------------------------- *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_copy_preserves_position () =
  let a = Rng.create 7 in
  ignore (Rng.bits64 a : int64);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_split_decorrelates () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr matches
  done;
  Alcotest.(check bool) "split stream differs" true (!matches < 4)

let test_int_range_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 17);
    let y = Rng.range rng (-5) 5 in
    Alcotest.(check bool) "range inclusive" true (y >= -5 && y <= 5)
  done

let test_int_covers_all_values () =
  let rng = Rng.create 3 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in [0, bound)" true (x >= 0.0 && x < 2.5);
    let u = Rng.uniform rng (-1.0) 1.0 in
    Alcotest.(check bool) "uniform in [lo, hi)" true (u >= -1.0 && u < 1.0)
  done

let test_gaussian_moments () =
  let rng = Rng.create 9 in
  let n = 20_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian rng ~mu:3.0 ~sigma:2.0) in
  let mean = Stats.mean samples in
  let sd = Stats.stddev samples in
  Alcotest.(check bool) "mean near mu" true (Float.abs (mean -. 3.0) < 0.1);
  Alcotest.(check bool) "stddev near sigma" true (Float.abs (sd -. 2.0) < 0.1)

let test_shuffle_is_permutation () =
  let rng = Rng.create 13 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_pick_uniformish () =
  let rng = Rng.create 17 in
  let counts = Array.make 4 0 in
  let arr = [| 0; 1; 2; 3 |] in
  for _ = 1 to 4000 do
    let k = Rng.pick rng arr in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200))
    counts

(* --- Stats -------------------------------------------------------------- *)

let test_basic_stats () =
  let a = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "sum" 10.0 (Stats.sum a);
  check_float "mean" 2.5 (Stats.mean a);
  check_float "min" 1.0 (Stats.min a);
  check_float "max" 4.0 (Stats.max a);
  check_float "spread" 3.0 (Stats.spread a);
  check_float "median" 2.5 (Stats.median a)

let test_stddev () =
  check_float "constant array" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  (* population stddev of {1,2,3,4} is sqrt(1.25) *)
  check_float "known value" (sqrt 1.25) (Stats.stddev [| 1.0; 2.0; 3.0; 4.0 |])

let test_percentile () =
  let a = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_float "p0" 10.0 (Stats.percentile a 0.0);
  check_float "p100" 50.0 (Stats.percentile a 100.0);
  check_float "p50" 30.0 (Stats.percentile a 50.0);
  check_float "p25" 20.0 (Stats.percentile a 25.0);
  (* interpolation between ranks *)
  check_float "p10 interpolated" 14.0 (Stats.percentile a 10.0)

let test_percentile_singleton () =
  check_float "singleton" 7.0 (Stats.percentile [| 7.0 |] 33.0)

let test_argmax_argmin () =
  let a = [| 3.0; 9.0; 1.0; 9.0 |] in
  Alcotest.(check int) "argmax first of ties" 1 (Stats.argmax a);
  Alcotest.(check int) "argmin" 2 (Stats.argmin a)

(* --- Properties --------------------------------------------------------- *)

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies within [min, max]" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 40) (float_bound_exclusive 1000.0))
    (fun a ->
      let m = Stats.mean a in
      m >= Stats.min a -. 1e-9 && m <= Stats.max a +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(
      pair
        (array_of_size Gen.(int_range 1 40) (float_bound_exclusive 1000.0))
        (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (a, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile a lo <= Stats.percentile a hi +. 1e-9)

let prop_shuffle_preserves_elements =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:100
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let arr = Array.of_list l in
      let before = List.sort compare (Array.to_list arr) in
      Rng.shuffle (Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = before)

let () =
  Runner.run "tats_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_copy_preserves_position;
          Alcotest.test_case "split" `Quick test_split_decorrelates;
          Alcotest.test_case "int/range bounds" `Quick test_int_range_bounds;
          Alcotest.test_case "int coverage" `Quick test_int_covers_all_values;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "pick uniform" `Quick test_pick_uniformish;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_basic_stats;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile singleton" `Quick test_percentile_singleton;
          Alcotest.test_case "argmax/argmin" `Quick test_argmax_argmin;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mean_bounded; prop_percentile_monotone; prop_shuffle_preserves_elements ]
      );
    ]
