(* Edge cases and failure injection across modules: degenerate sizes,
   dimension mismatches, empty structures, and API misuse that must raise
   rather than corrupt. *)

module Rng = Tats_util.Rng
module Matrix = Tats_linalg.Matrix
module Lu = Tats_linalg.Lu
module Sparse = Tats_linalg.Sparse
module Cg = Tats_linalg.Cg
module Graph = Tats_taskgraph.Graph
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
module Tgff_io = Tats_taskgraph.Tgff_io
module Comm = Tats_techlib.Comm
module Catalog = Tats_techlib.Catalog
module Block = Tats_floorplan.Block
module Slicing = Tats_floorplan.Slicing
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched
module Metrics = Tats_sched.Metrics
module Pareto = Tats_cosynth.Pareto

(* [f] raises [Invalid_argument] with a message that starts with [prefix]:
   the named check, not an out-of-bounds index or another check. *)
let raises prefix f =
  try ignore (f ()); false
  with Invalid_argument msg ->
    String.length msg >= String.length prefix
    && String.sub msg 0 (String.length prefix) = prefix

(* --- linalg ---------------------------------------------------------------- *)

let test_matrix_dimension_mismatches () =
  let a = Matrix.create 2 3 and b = Matrix.create 2 3 in
  Alcotest.(check bool) "mul" true
    (raises "Matrix.mul:" (fun () -> Matrix.mul a b));
  Alcotest.(check bool) "mul_vec" true
    (raises "Matrix.mul_vec:" (fun () -> Matrix.mul_vec a [| 1.0 |]));
  Alcotest.(check bool) "add" true
    (raises "Matrix: dimension mismatch" (fun () ->
         Matrix.add a (Matrix.create 3 2)));
  Alcotest.(check bool) "max_abs_diff" true
    (raises "Matrix.max_abs_diff:" (fun () ->
         Matrix.max_abs_diff a (Matrix.create 3 3)))

let test_lu_non_square () =
  Alcotest.(check bool) "factor" true
    (raises "Lu.factor: not square" (fun () -> Lu.factor (Matrix.create 2 3)))

let test_lu_1x1 () =
  let a = Matrix.of_arrays [| [| 4.0 |] |] in
  Alcotest.(check (float 1e-12)) "solve" 2.5 (Lu.solve a [| 10.0 |]).(0);
  Alcotest.(check (float 1e-12)) "det" 4.0 (Lu.det (Lu.factor a))

let test_cg_rejects_non_square_and_mismatch () =
  let rect = Sparse.of_triplets ~rows:2 ~cols:3 [ (0, 0, 1.0) ] in
  Alcotest.(check bool) "non-square" true
    (raises "Cg.solve: matrix not square" (fun () -> Cg.solve rect [| 1.0; 1.0 |]));
  let sq = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (1, 1, 1.0) ] in
  Alcotest.(check bool) "rhs mismatch" true
    (raises "Cg.solve: size mismatch" (fun () -> Cg.solve sq [| 1.0 |]))

let test_sparse_empty_matrix () =
  let s = Sparse.of_triplets ~rows:3 ~cols:3 [] in
  Alcotest.(check int) "nnz" 0 (Sparse.nnz s);
  Alcotest.(check (array (float 0.0))) "mul_vec" [| 0.0; 0.0; 0.0 |]
    (Sparse.mul_vec s [| 1.0; 2.0; 3.0 |])

(* --- util ------------------------------------------------------------------ *)

let test_rng_range_degenerate () =
  let rng = Rng.create 1 in
  for _ = 1 to 20 do
    Alcotest.(check int) "lo = hi" 7 (Rng.range rng 7 7)
  done

let test_rng_shuffle_small () =
  let rng = Rng.create 1 in
  let empty = [||] in
  Rng.shuffle rng empty;
  Alcotest.(check int) "empty untouched" 0 (Array.length empty);
  let one = [| 42 |] in
  Rng.shuffle rng one;
  Alcotest.(check int) "singleton untouched" 42 one.(0)

(* --- taskgraph --------------------------------------------------------------- *)

let test_single_task_graph () =
  let b = Graph.builder ~name:"solo" ~deadline:10.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let g = Graph.build b in
  Alcotest.(check (list int)) "source" [ t0 ] (Graph.sources g);
  Alcotest.(check (list int)) "sink" [ t0 ] (Graph.sinks g);
  Alcotest.(check int) "depth" 1 (Graph.longest_path_hops g);
  Alcotest.(check bool) "connected" true (Graph.is_weakly_connected g)

let test_empty_graph_builds () =
  let g = Graph.build (Graph.builder ~name:"empty" ~deadline:1.0) in
  Alcotest.(check int) "no tasks" 0 (Graph.n_tasks g);
  Alcotest.(check (list int)) "no sources" [] (Graph.sources g);
  Alcotest.(check bool) "vacuously connected" true (Graph.is_weakly_connected g)

let test_generator_single_task () =
  let g =
    Generator.generate ~seed:3 ~name:"one"
      { Generator.default_spec with Generator.n_tasks = 1; n_edges = 0 }
  in
  Alcotest.(check int) "one task" 1 (Graph.n_tasks g);
  Alcotest.(check int) "no edges" 0 (Graph.n_edges g)

let test_tgff_rejects_negative_data () =
  let text = "graph g deadline 10\ntask a type 0\ntask b type 0\nedge a -> b data -5\n" in
  match Tgff_io.of_string text with
  | Ok _ -> Alcotest.fail "negative data accepted"
  | Error msg ->
      Alcotest.(check bool) "mentions line 4" true
        (String.length msg >= 6 && String.sub msg 0 6 = "line 4")

(* --- floorplan ---------------------------------------------------------------- *)

let test_single_block_floorplans () =
  let blocks = [| Block.make ~name:"b" ~area:4e-6 () |] in
  let p = Slicing.evaluate blocks (Slicing.initial 1) in
  Alcotest.(check (float 1e-15)) "exact area" 4e-6
    (Tats_floorplan.Placement.die_area p);
  let g = Grid.layout blocks in
  Alcotest.(check (float 1e-15)) "grid too" 4e-6
    (Tats_floorplan.Placement.die_area g)

let test_grid_rejects_empty () =
  Alcotest.(check bool) "empty" true
    (raises "Grid.layout: no blocks" (fun () -> Grid.layout [||]))

(* --- thermal ------------------------------------------------------------------ *)

let test_hotspot_single_block () =
  let placement = Grid.layout [| Block.make ~name:"b" ~area:1.6e-5 () |] in
  let h = Hotspot.create placement in
  let t = Hotspot.query h ~power:[| 5.0 |] in
  Alcotest.(check int) "one block" 1 (Array.length t);
  Alcotest.(check bool) "warm" true (t.(0) > 45.0)

let test_hotspot_power_length_checked () =
  let placement = Grid.layout [| Block.make ~name:"b" ~area:1.6e-5 () |] in
  let h = Hotspot.create placement in
  Alcotest.(check bool) "wrong length" true
    (raises "Rcmodel.rhs: power vector" (fun () ->
         Hotspot.query h ~power:[| 1.0; 2.0 |]))

(* --- sched --------------------------------------------------------------------- *)

let platform_lib = Catalog.platform_library ()

let test_schedule_empty_graph () =
  let g = Graph.build (Graph.builder ~name:"empty" ~deadline:1.0) in
  let s =
    List_sched.run ~graph:g ~lib:platform_lib ~pes:(Catalog.platform_instances 2)
      ~policy:Policy.Baseline ()
  in
  Alcotest.(check (float 0.0)) "zero makespan" 0.0 s.Schedule.makespan;
  Alcotest.(check int) "valid" 0 (List.length (Schedule.validate ~lib:platform_lib s));
  Alcotest.(check (float 0.0)) "no energy" 0.0 (Metrics.total_task_energy s)

let test_single_task_schedule_metrics () =
  let b = Graph.builder ~name:"solo" ~deadline:1000.0 in
  let _ = Graph.add_task b ~task_type:0 () in
  let g = Graph.build b in
  let s =
    List_sched.run ~graph:g ~lib:platform_lib ~pes:(Catalog.platform_instances 4)
      ~policy:Policy.Baseline ()
  in
  let utils = Metrics.utilizations s in
  (* One PE fully busy for the task's span; the others idle. *)
  Alcotest.(check (float 1e-9)) "busy PE" 1.0 (Tats_util.Stats.max utils);
  Alcotest.(check (float 1e-9)) "idle PE" 0.0 (Tats_util.Stats.min utils);
  Alcotest.(check (float 1e-12)) "no comm energy" 0.0
    (Metrics.total_comm_energy s ~lib:platform_lib)

let test_run_adaptive_rejects_bad_multiplier () =
  let g = Benchmarks.load 0 in
  List.iter
    (fun (what, max_multiplier) ->
      Alcotest.(check bool) what true
        (raises "List_sched.run_adaptive: multiplier" (fun () ->
             List_sched.run_adaptive ~max_multiplier ~graph:g ~lib:platform_lib
               ~pes:(Catalog.platform_instances 4) ~policy:Policy.Baseline ())))
    [ ("non-positive", 0.0); ("nan", Float.nan); ("infinite", Float.infinity) ]

(* An infinite weight times a zero cost makes every DC NaN: the weight is
   rejected by name before any candidate is scored. *)
let test_run_rejects_non_finite_weight () =
  let g = Benchmarks.load 0 in
  List.iter
    (fun (what, cost_weight) ->
      Alcotest.(check bool) what true
        (raises "List_sched.pick: weight" (fun () ->
             List_sched.run ~weights:{ Policy.cost_weight } ~graph:g
               ~lib:platform_lib ~pes:(Catalog.platform_instances 4)
               ~policy:Policy.Baseline ())))
    [ ("infinite", Float.infinity); ("nan", Float.nan); ("negative", -1.0) ]

let test_lower_bound_rejects_no_pes () =
  let g = Benchmarks.load 0 in
  Alcotest.(check bool) "zero PEs" true
    (raises "Metrics.makespan_lower_bound: no PEs" (fun () ->
         Metrics.makespan_lower_bound g ~lib:platform_lib ~n_pes:0))

(* --- pareto -------------------------------------------------------------------- *)

let test_pareto_frontier_of_all_infeasible () =
  let mk label =
    {
      Pareto.label;
      arch_cost = 10.0;
      n_pes = 1;
      meets_deadline = false;
      row = { Metrics.total_power = 1.0; max_temp = 50.0; avg_temp = 50.0 };
    }
  in
  Alcotest.(check int) "empty frontier" 0
    (List.length (Pareto.frontier [ mk "a"; mk "b" ]))

let test_pareto_frontier_empty_input () =
  Alcotest.(check int) "empty in, empty out" 0 (List.length (Pareto.frontier []))

(* --- comm triangle inequality ---------------------------------------------------- *)

let prop_mesh_hops_triangle_inequality =
  QCheck.Test.make ~name:"mesh hop counts satisfy the triangle inequality" ~count:200
    QCheck.(triple (int_range 0 15) (int_range 0 15) (int_range 0 15))
    (fun (a, b, c) ->
      let comm = Comm.mesh ~cols:4 () in
      Comm.hops comm ~src:a ~dst:c
      <= Comm.hops comm ~src:a ~dst:b + Comm.hops comm ~src:b ~dst:c)

let prop_mesh_hops_symmetric =
  QCheck.Test.make ~name:"mesh hop counts are symmetric" ~count:200
    QCheck.(pair (int_range 0 15) (int_range 0 15))
    (fun (a, b) ->
      let comm = Comm.mesh ~cols:4 () in
      Comm.hops comm ~src:a ~dst:b = Comm.hops comm ~src:b ~dst:a)

let () =
  Runner.run "edge_cases"
    [
      ( "linalg",
        [
          Alcotest.test_case "matrix mismatches" `Quick test_matrix_dimension_mismatches;
          Alcotest.test_case "lu non-square" `Quick test_lu_non_square;
          Alcotest.test_case "lu 1x1" `Quick test_lu_1x1;
          Alcotest.test_case "cg shape checks" `Quick
            test_cg_rejects_non_square_and_mismatch;
          Alcotest.test_case "sparse empty" `Quick test_sparse_empty_matrix;
        ] );
      ( "util",
        [
          Alcotest.test_case "range lo=hi" `Quick test_rng_range_degenerate;
          Alcotest.test_case "shuffle small" `Quick test_rng_shuffle_small;
        ] );
      ( "taskgraph",
        [
          Alcotest.test_case "single task" `Quick test_single_task_graph;
          Alcotest.test_case "empty graph" `Quick test_empty_graph_builds;
          Alcotest.test_case "generator n=1" `Quick test_generator_single_task;
          Alcotest.test_case "tgff negative data" `Quick test_tgff_rejects_negative_data;
        ] );
      ( "floorplan",
        [
          Alcotest.test_case "single block" `Quick test_single_block_floorplans;
          Alcotest.test_case "grid empty" `Quick test_grid_rejects_empty;
        ] );
      ( "thermal",
        [
          Alcotest.test_case "single block hotspot" `Quick test_hotspot_single_block;
          Alcotest.test_case "power length" `Quick test_hotspot_power_length_checked;
        ] );
      ( "sched",
        [
          Alcotest.test_case "empty graph schedules" `Quick test_schedule_empty_graph;
          Alcotest.test_case "single task metrics" `Quick
            test_single_task_schedule_metrics;
          Alcotest.test_case "adaptive bad multiplier" `Quick
            test_run_adaptive_rejects_bad_multiplier;
          Alcotest.test_case "lower bound no PEs" `Quick test_lower_bound_rejects_no_pes;
          Alcotest.test_case "non-finite weight" `Quick
            test_run_rejects_non_finite_weight;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "all infeasible" `Quick test_pareto_frontier_of_all_infeasible;
          Alcotest.test_case "empty input" `Quick test_pareto_frontier_empty_input;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mesh_hops_triangle_inequality; prop_mesh_hops_symmetric ] );
    ]
