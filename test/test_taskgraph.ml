(* Tests for Tats_taskgraph: graph construction, criticality, the TGFF-style
   generator, the paper's benchmark suite, conditional task graphs, DOT. *)

module Task = Tats_taskgraph.Task
module Graph = Tats_taskgraph.Graph
module Criticality = Tats_taskgraph.Criticality
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
module Cond = Tats_taskgraph.Cond
module Dot = Tats_taskgraph.Dot

(* A small diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. *)
let diamond () =
  let b = Graph.builder ~name:"diamond" ~deadline:100.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:1 () in
  let t2 = Graph.add_task b ~task_type:2 () in
  let t3 = Graph.add_task b ~task_type:0 () in
  Graph.add_edge b ~data:10.0 t0 t1;
  Graph.add_edge b ~data:20.0 t0 t2;
  Graph.add_edge b t1 t3;
  Graph.add_edge b t2 t3;
  Graph.build b

(* --- Construction ------------------------------------------------------- *)

let test_basic_accessors () =
  let g = diamond () in
  Alcotest.(check int) "tasks" 4 (Graph.n_tasks g);
  Alcotest.(check int) "edges" 4 (Graph.n_edges g);
  Alcotest.(check string) "name" "diamond" (Graph.name g);
  Alcotest.(check (float 0.0)) "deadline" 100.0 (Graph.deadline g);
  Alcotest.(check (list int)) "sources" [ 0 ] (Graph.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Graph.sinks g);
  Alcotest.(check bool) "has_edge" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "no reverse edge" false (Graph.has_edge g 1 0)

let test_edge_data_preserved () =
  let g = diamond () in
  match List.find_opt (fun e -> e.Graph.src = 0 && e.Graph.dst = 2) (Graph.edges g) with
  | Some e -> Alcotest.(check (float 0.0)) "data" 20.0 e.Graph.data
  | None -> Alcotest.fail "edge 0->2 missing"

let test_builder_rejects_cycle () =
  let b = Graph.builder ~name:"cyc" ~deadline:10.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:0 () in
  Graph.add_edge b t0 t1;
  Graph.add_edge b t1 t0;
  Alcotest.check_raises "cycle" (Invalid_argument "Graph.build: cyclic graph")
    (fun () -> ignore (Graph.build b : Graph.t))

let test_builder_rejects_bad_edges () =
  let b = Graph.builder ~name:"bad" ~deadline:10.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge b t0 t0);
  Alcotest.check_raises "unknown endpoint"
    (Invalid_argument "Graph.add_edge: unknown endpoint") (fun () ->
      Graph.add_edge b t0 5);
  let t1 = Graph.add_task b ~task_type:0 () in
  Graph.add_edge b t0 t1;
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_edge: duplicate edge")
    (fun () -> Graph.add_edge b t0 t1)

let test_builder_rejects_bad_deadline () =
  Alcotest.check_raises "deadline"
    (Invalid_argument "Graph.builder: non-positive deadline") (fun () ->
      ignore (Graph.builder ~name:"x" ~deadline:0.0 : Graph.builder))

let test_topological_order_diamond () =
  let g = diamond () in
  let order = Graph.topological_order g in
  let pos = Array.make 4 0 in
  Array.iteri (fun k v -> pos.(v) <- k) order;
  List.iter
    (fun { Graph.src; dst; _ } ->
      Alcotest.(check bool) "edge respects order" true (pos.(src) < pos.(dst)))
    (Graph.edges g)

let test_connectivity_and_depth () =
  let g = diamond () in
  Alcotest.(check bool) "connected" true (Graph.is_weakly_connected g);
  Alcotest.(check int) "longest chain" 3 (Graph.longest_path_hops g)

(* --- Criticality -------------------------------------------------------- *)

let test_sc_unit_weights () =
  let g = diamond () in
  let sc = Criticality.compute ~node_weight:(fun _ -> 1.0) g in
  Alcotest.(check (float 1e-9)) "sink" 1.0 sc.(3);
  Alcotest.(check (float 1e-9)) "middle" 2.0 sc.(1);
  Alcotest.(check (float 1e-9)) "source" 3.0 sc.(0)

let test_sc_weighted () =
  (* Type 1 heavier than type 2 at node weight = task_type weight below. *)
  let g = diamond () in
  let w (t : Task.t) = if t.Task.task_type = 1 then 10.0 else 1.0 in
  let sc = Criticality.compute ~node_weight:w g in
  (* Longest path from 0 goes through task 1 (weight 10). *)
  Alcotest.(check (float 1e-9)) "through heavy branch" 12.0 sc.(0)

let test_sc_edge_weights () =
  let g = diamond () in
  let sc =
    Criticality.compute
      ~edge_weight:(fun e -> e.Graph.data)
      ~node_weight:(fun _ -> 1.0)
      g
  in
  (* 0 -> 2 carries 20 bytes: path 0(1) + 20 + 2(1) + 0 + 3(1) = 23. *)
  Alcotest.(check (float 1e-9)) "comm-weighted" 23.0 sc.(0)

let test_hop_distance () =
  let g = diamond () in
  Alcotest.(check (array int)) "hops" [| 3; 2; 2; 1 |] (Criticality.hop_distance g)

let test_rank_order () =
  let order = Criticality.rank_order [| 5.0; 9.0; 9.0; 1.0 |] in
  Alcotest.(check (array int)) "desc with ties by id" [| 1; 2; 0; 3 |] order

(* --- Generator ---------------------------------------------------------- *)

let spec ~tasks ~edges =
  {
    Generator.default_spec with
    Generator.n_tasks = tasks;
    n_edges = edges;
    deadline = 500.0;
  }

let test_generator_counts () =
  let g = Generator.generate ~seed:1 ~name:"g" (spec ~tasks:25 ~edges:40) in
  Alcotest.(check int) "tasks" 25 (Graph.n_tasks g);
  Alcotest.(check int) "edges" 40 (Graph.n_edges g)

let test_generator_determinism () =
  let a = Generator.generate ~seed:5 ~name:"a" (spec ~tasks:20 ~edges:30) in
  let b = Generator.generate ~seed:5 ~name:"b" (spec ~tasks:20 ~edges:30) in
  Alcotest.(check bool) "same edges" true
    (List.for_all2
       (fun (e1 : Graph.edge) (e2 : Graph.edge) ->
         e1.Graph.src = e2.Graph.src && e1.Graph.dst = e2.Graph.dst)
       (Graph.edges a) (Graph.edges b))

let test_generator_seed_changes_graph () =
  let a = Generator.generate ~seed:5 ~name:"a" (spec ~tasks:20 ~edges:30) in
  let b = Generator.generate ~seed:6 ~name:"b" (spec ~tasks:20 ~edges:30) in
  let key g =
    List.map (fun (e : Graph.edge) -> (e.Graph.src, e.Graph.dst)) (Graph.edges g)
  in
  Alcotest.(check bool) "different seeds differ" true (key a <> key b)

let test_generator_rejects_infeasible () =
  Alcotest.(check bool) "too few edges" true
    (try
       ignore (Generator.generate ~seed:1 ~name:"x" (spec ~tasks:10 ~edges:3) : Graph.t);
       false
     with Invalid_argument _ -> true)

let test_feasible_edges () =
  let lo, hi = Generator.feasible_edges ~n_tasks:10 in
  Alcotest.(check int) "lo" 9 lo;
  Alcotest.(check int) "hi" 45 hi

let prop_generator_valid =
  QCheck.Test.make ~name:"generated graphs are connected DAGs with exact counts"
    ~count:60
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, tasks) ->
      let lo, hi = Generator.feasible_edges ~n_tasks:tasks in
      let edges = lo + ((seed * 13) mod (hi - lo + 1)) in
      let g = Generator.generate ~seed ~name:"q" (spec ~tasks ~edges) in
      Graph.n_tasks g = tasks
      && Graph.n_edges g = edges
      && Graph.is_weakly_connected g
      && Array.length (Graph.topological_order g) = tasks)

(* --- Benchmarks --------------------------------------------------------- *)

let test_benchmark_descriptors_match_paper () =
  let expect = [ ("Bm1", 19, 19, 790.0); ("Bm2", 35, 40, 1500.0);
                 ("Bm3", 39, 43, 1650.0); ("Bm4", 51, 60, 2000.0) ] in
  List.iteri
    (fun i (name, tasks, edges, deadline) ->
      let d = Benchmarks.descriptors.(i) in
      Alcotest.(check string) "name" name d.Benchmarks.bench_name;
      Alcotest.(check int) "tasks" tasks d.Benchmarks.tasks;
      Alcotest.(check int) "edges" edges d.Benchmarks.edges;
      Alcotest.(check (float 0.0)) "deadline" deadline d.Benchmarks.deadline;
      let g = Benchmarks.load i in
      Alcotest.(check int) "graph tasks" tasks (Graph.n_tasks g);
      Alcotest.(check int) "graph edges" edges (Graph.n_edges g))
    expect

let test_benchmark_by_name () =
  (match Benchmarks.index_of_name "Bm3" with
  | Ok i ->
      Alcotest.(check int) "Bm3 index" 2 i;
      Alcotest.(check int) "Bm3 tasks" 39 (Graph.n_tasks (Benchmarks.load i))
  | Error e -> Alcotest.failf "Bm3 not found: %s" e);
  Alcotest.(check (result int string))
    "unknown is an error naming it"
    (Error "unknown benchmark \"nope\" (want Bm1..Bm4)")
    (Benchmarks.index_of_name "nope")

let test_benchmark_task_types_in_range () =
  Array.iter
    (fun g ->
      Array.iter
        (fun (t : Task.t) ->
          Alcotest.(check bool) "type in range" true
            (t.Task.task_type >= 0 && t.Task.task_type < Benchmarks.n_task_types))
        (Graph.tasks g))
    (Benchmarks.all ())

(* --- Conditional task graphs ------------------------------------------- *)

(* 0 branches on variable 0: true -> 1, false -> 2; both rejoin at 3 via a
   second diamond-like structure (3 unconditional from 0). *)
let cond_graph () =
  let b = Graph.builder ~name:"cond" ~deadline:100.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:0 () in
  let t2 = Graph.add_task b ~task_type:0 () in
  let t3 = Graph.add_task b ~task_type:0 () in
  let t4 = Graph.add_task b ~task_type:0 () in
  Graph.add_edge b t0 t1;
  Graph.add_edge b t0 t2;
  Graph.add_edge b t0 t3;
  Graph.add_edge b t1 t4;
  Graph.add_edge b t2 t4;
  let g = Graph.build b in
  (g, Cond.make g [ (t0, t1, 0, true); (t0, t2, 0, false) ])

let test_cond_guards () =
  let _, c = cond_graph () in
  Alcotest.(check (list (pair int bool))) "guard of 1" [ (0, true) ] (Cond.guard_of c 1);
  Alcotest.(check (list (pair int bool))) "guard of 2" [ (0, false) ] (Cond.guard_of c 2);
  Alcotest.(check (list (pair int bool))) "unconditional" [] (Cond.guard_of c 3)

let test_cond_rejoin_cancels () =
  (* Task 4 is reached both under v0=true (via 1) and v0=false (via 2): the
     conflicting literals cancel and 4 is unconditional. *)
  let _, c = cond_graph () in
  Alcotest.(check (list (pair int bool))) "rejoin" [] (Cond.guard_of c 4)

let test_cond_exclusion () =
  let _, c = cond_graph () in
  Alcotest.(check bool) "1 and 2 exclusive" true (Cond.mutually_exclusive c 1 2);
  Alcotest.(check bool) "1 and 3 not" false (Cond.mutually_exclusive c 1 3);
  Alcotest.(check (list (pair int int))) "pairs" [ (1, 2) ] (Cond.exclusion_pairs c)

let test_cond_rejects_bad_edge () =
  let g = diamond () in
  Alcotest.(check bool) "bad edge" true
    (try ignore (Cond.make g [ (3, 0, 0, true) ] : Cond.t); false
     with Invalid_argument _ -> true)

(* --- Cluster ------------------------------------------------------------ *)

module Cluster = Tats_taskgraph.Cluster

(* A chain with a heavy middle edge plus a light side branch. *)
let chain_with_branch () =
  let b = Graph.builder ~name:"chain" ~deadline:100.0 in
  let t0 = Graph.add_task b ~task_type:0 () in
  let t1 = Graph.add_task b ~task_type:1 () in
  let t2 = Graph.add_task b ~task_type:2 () in
  let t3 = Graph.add_task b ~task_type:3 () in
  Graph.add_edge b ~data:100.0 t0 t1;
  Graph.add_edge b ~data:100.0 t1 t2;
  Graph.add_edge b ~data:1.0 t0 t3;
  Graph.build b

let test_cluster_merges_heavy_chain () =
  let g = chain_with_branch () in
  let c = Cluster.linear ~threshold:10.0 g in
  (* 0-1-2 fuse into one cluster; 3 stays alone. *)
  Alcotest.(check int) "two clusters" 2 (Graph.n_tasks c.Cluster.clustered);
  Alcotest.(check int) "same cluster 0/1" c.Cluster.cluster_of.(0)
    c.Cluster.cluster_of.(1);
  Alcotest.(check int) "same cluster 1/2" c.Cluster.cluster_of.(1)
    c.Cluster.cluster_of.(2);
  Alcotest.(check bool) "3 apart" true
    (c.Cluster.cluster_of.(3) <> c.Cluster.cluster_of.(0));
  Alcotest.(check (float 1e-9)) "internalized" 200.0 c.Cluster.internalized_data;
  (match Cluster.validate c g with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid clustering: %s" m)

let test_cluster_threshold_blocks_merges () =
  let g = chain_with_branch () in
  let c = Cluster.linear ~threshold:1000.0 g in
  Alcotest.(check int) "nothing merged" 4 (Graph.n_tasks c.Cluster.clustered);
  Alcotest.(check (float 1e-9)) "nothing internalized" 0.0 c.Cluster.internalized_data

let test_cluster_never_creates_cycle () =
  (* The diamond: merging 0-1 and then 1-3 would strand 2 in a cycle if
     unchecked; the result must stay a DAG (Graph.build would raise). *)
  let g = diamond () in
  let c = Cluster.linear g in
  Alcotest.(check bool) "clustered is a DAG" true
    (Array.length (Graph.topological_order c.Cluster.clustered)
    = Graph.n_tasks c.Cluster.clustered);
  (match Cluster.validate c g with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invalid: %s" m)

let test_cluster_lift_assignment () =
  let g = chain_with_branch () in
  let c = Cluster.linear ~threshold:10.0 g in
  let lifted = Cluster.lift_assignment c ~cluster_assignment:[| 7; 9 |] in
  Alcotest.(check int) "task 0 follows its cluster" lifted.(0)
    lifted.(1);
  Alcotest.(check bool) "branch may differ" true (Array.length lifted = 4)

let test_cluster_types_are_dense () =
  let g = chain_with_branch () in
  let c = Cluster.linear ~threshold:10.0 g in
  Array.iteri
    (fun i (t : Task.t) -> Alcotest.(check int) "type = cluster id" i t.Task.task_type)
    (Graph.tasks c.Cluster.clustered);
  let types = Cluster.member_types c g in
  Alcotest.(check int) "one list per cluster" (Graph.n_tasks c.Cluster.clustered)
    (Array.length types);
  Alcotest.(check (list int)) "chain types in order" [ 0; 1; 2 ] types.(0)

let prop_cluster_valid_on_random_graphs =
  QCheck.Test.make ~name:"linear clustering is structurally sound" ~count:60
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, tasks) ->
      let lo, hi = Generator.feasible_edges ~n_tasks:tasks in
      let edges = lo + ((seed * 5) mod (Stdlib.max 1 (hi - lo + 1))) in
      let g = Generator.generate ~seed ~name:"q" (spec ~tasks ~edges) in
      let c = Cluster.linear g in
      Cluster.validate c g = Ok ()
      && Array.length (Graph.topological_order c.Cluster.clustered)
         = Graph.n_tasks c.Cluster.clustered)

(* --- Dot ---------------------------------------------------------------- *)

let test_dot_contains_nodes_and_edges () =
  let g = diamond () in
  let dot = Dot.to_dot g in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let ln = String.length needle and lh = String.length dot in
    let rec scan i = i + ln <= lh && (String.sub dot i ln = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "node" true (contains "n0 [label=");
  Alcotest.(check bool) "edge" true (contains "n0 -> n1")

let () =
  Alcotest.run "tats_taskgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "accessors" `Quick test_basic_accessors;
          Alcotest.test_case "edge data" `Quick test_edge_data_preserved;
          Alcotest.test_case "cycle rejected" `Quick test_builder_rejects_cycle;
          Alcotest.test_case "bad edges rejected" `Quick test_builder_rejects_bad_edges;
          Alcotest.test_case "bad deadline rejected" `Quick
            test_builder_rejects_bad_deadline;
          Alcotest.test_case "topological order" `Quick test_topological_order_diamond;
          Alcotest.test_case "connectivity/depth" `Quick test_connectivity_and_depth;
        ] );
      ( "criticality",
        [
          Alcotest.test_case "unit weights" `Quick test_sc_unit_weights;
          Alcotest.test_case "node weights" `Quick test_sc_weighted;
          Alcotest.test_case "edge weights" `Quick test_sc_edge_weights;
          Alcotest.test_case "hop distance" `Quick test_hop_distance;
          Alcotest.test_case "rank order" `Quick test_rank_order;
        ] );
      ( "generator",
        [
          Alcotest.test_case "exact counts" `Quick test_generator_counts;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_generator_seed_changes_graph;
          Alcotest.test_case "infeasible rejected" `Quick
            test_generator_rejects_infeasible;
          Alcotest.test_case "feasible bounds" `Quick test_feasible_edges;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "paper descriptors" `Quick
            test_benchmark_descriptors_match_paper;
          Alcotest.test_case "by name" `Quick test_benchmark_by_name;
          Alcotest.test_case "task types" `Quick test_benchmark_task_types_in_range;
        ] );
      ( "conditional",
        [
          Alcotest.test_case "guards" `Quick test_cond_guards;
          Alcotest.test_case "rejoin cancels" `Quick test_cond_rejoin_cancels;
          Alcotest.test_case "exclusion" `Quick test_cond_exclusion;
          Alcotest.test_case "bad edge rejected" `Quick test_cond_rejects_bad_edge;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "heavy chain merges" `Quick test_cluster_merges_heavy_chain;
          Alcotest.test_case "threshold blocks" `Quick test_cluster_threshold_blocks_merges;
          Alcotest.test_case "never cyclic" `Quick test_cluster_never_creates_cycle;
          Alcotest.test_case "lift assignment" `Quick test_cluster_lift_assignment;
          Alcotest.test_case "dense fresh types" `Quick test_cluster_types_are_dense;
        ] );
      ("dot", [ Alcotest.test_case "render" `Quick test_dot_contains_nodes_and_edges ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generator_valid; prop_cluster_valid_on_random_graphs ] );
    ]
