(* Tests for the extension substrates: TGFF-style file I/O and
   conditional-graph scenario analysis. *)

module Rng = Tats_util.Rng
module Graph = Tats_taskgraph.Graph
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
module Tgff_io = Tats_taskgraph.Tgff_io
module Task = Tats_taskgraph.Task

(* --- Tgff_io -------------------------------------------------------------- *)

let test_tgff_roundtrip_diamond () =
  let b = Graph.builder ~name:"d" ~deadline:120.0 in
  let t0 = Graph.add_task b ~name:"src" ~task_type:1 () in
  let t1 = Graph.add_task b ~name:"mid" ~task_type:2 () in
  Graph.add_edge b ~data:33.5 t0 t1;
  let g = Graph.build b in
  match Tgff_io.of_string (Tgff_io.to_string g) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok g' ->
      Alcotest.(check string) "name" (Graph.name g) (Graph.name g');
      Alcotest.(check (float 1e-9)) "deadline" (Graph.deadline g) (Graph.deadline g');
      Alcotest.(check int) "tasks" (Graph.n_tasks g) (Graph.n_tasks g');
      Alcotest.(check int) "edges" (Graph.n_edges g) (Graph.n_edges g');
      let e = List.hd (Graph.edges g') in
      Alcotest.(check (float 1e-6)) "edge data" 33.5 e.Graph.data

let test_tgff_parse_comments_and_blanks () =
  let text =
    "# a comment\n\ngraph g deadline 50\n  task a type 0  # trailing\ntask b type 1\nedge a -> b\n"
  in
  match Tgff_io.of_string text with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok g ->
      Alcotest.(check int) "tasks" 2 (Graph.n_tasks g);
      Alcotest.(check int) "edges" 1 (Graph.n_edges g)

let test_tgff_errors_carry_line_numbers () =
  let expect_error text fragment =
    match Tgff_io.of_string text with
    | Ok _ -> Alcotest.failf "expected failure for %S" text
    | Error msg ->
        let contains =
          let ln = String.length fragment and lh = String.length msg in
          let rec scan i =
            i + ln <= lh && (String.sub msg i ln = fragment || scan (i + 1))
          in
          scan 0
        in
        if not contains then Alcotest.failf "error %S misses %S" msg fragment
  in
  expect_error "task a type 0\n" "line 1";
  expect_error "graph g deadline 10\ntask a type x\n" "line 2";
  expect_error "graph g deadline 10\ntask a type 0\nedge a -> b\n" "unknown task";
  expect_error "graph g deadline 10\ntask a type 0\ntask a type 1\n" "duplicate task";
  expect_error "graph g deadline -3\n" "line 1";
  expect_error "" "no graph directive"

(* Deadlines and edge data must be finite: NaN compares false against
   every bound and infinity passes a sign check, so each is rejected by
   Graph itself and reported with its line. *)
let test_tgff_rejects_non_finite () =
  let expect_error text fragment =
    match Tgff_io.of_string text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error msg ->
        Alcotest.(check string) (Printf.sprintf "error for %S" text) fragment msg
  in
  expect_error "graph g deadline nan\ntask a type 0\n"
    "line 1: Graph.builder: non-finite deadline";
  expect_error "graph g deadline inf\ntask a type 0\n"
    "line 1: Graph.builder: non-finite deadline";
  let edge data =
    "graph g deadline 10\ntask a type 0\ntask b type 0\nedge a -> b data " ^ data
  in
  expect_error (edge "inf") "line 4: Graph.add_edge: non-finite data";
  expect_error (edge "nan") "line 4: Graph.add_edge: non-finite data"

(* Random bytes and single-byte mutations of the benchmarks' own files
   parse to Ok or Error; nothing escapes as an exception. *)
let test_tgff_fuzz () =
  let parse text =
    match Tgff_io.of_string text with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "of_string raised %s on %S" (Printexc.to_string e) text
  in
  for _ = 1 to 500 do
    parse (Fuzz.rand_string 120)
  done;
  Array.iter
    (fun g ->
      let text = Tgff_io.to_string g in
      for _ = 1 to 250 do
        parse (Fuzz.mutate text)
      done)
    (Benchmarks.all ())

let test_tgff_file_roundtrip () =
  let g = Benchmarks.load 0 in
  let path = Filename.temp_file "tats" ".tgff" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Tgff_io.save g path;
      match Tgff_io.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok g' ->
          Alcotest.(check int) "tasks" (Graph.n_tasks g) (Graph.n_tasks g');
          Alcotest.(check int) "edges" (Graph.n_edges g) (Graph.n_edges g'))

(* Graph's range checks report through the parser with the line of the
   offending directive; blank and comment lines still count. *)
let test_tgff_range_errors_keep_line () =
  let expect text msg =
    match Tgff_io.of_string text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error got -> Alcotest.(check string) (Printf.sprintf "error for %S" text) msg got
  in
  expect "graph g deadline 0\n" "line 1: Graph.builder: non-positive deadline";
  expect "# header\n\ngraph g deadline -3\n"
    "line 3: Graph.builder: non-positive deadline";
  expect "graph g deadline 10\ntask a type 0\n# gap\ntask b type 0\nedge a -> b data -1\n"
    "line 5: Graph.add_edge: negative data";
  expect "graph g deadline 10\ntask a type 0\nedge a -> a\n"
    "line 3: Graph.add_edge: self-loop";
  expect "graph g deadline 10\ntask a type 0\ntask b type 0\nedge a -> b\nedge a -> b\n"
    "line 5: Graph.add_edge: duplicate edge"

(* Each malformed directive names its line and what is wrong with it. *)
let test_tgff_malformed_directives () =
  let expect text msg =
    match Tgff_io.of_string text with
    | Ok _ -> Alcotest.failf "accepted %S" text
    | Error got -> Alcotest.(check string) (Printf.sprintf "error for %S" text) msg got
  in
  let g = "graph g deadline 10\ntask a type 0\ntask b type 0\n" in
  expect "graph g deadline ten\n" "line 1: bad deadline: ten";
  expect "graph g deadline 10\ngraph h deadline 10\n" "line 2: duplicate graph directive";
  expect "graph g\n" "line 1: unrecognized directive: graph";
  expect "node a\n" "line 1: unrecognized directive: node";
  expect "edge a -> b\n" "line 1: edge before graph directive";
  expect "graph g deadline 10\ntask a type -1\n" "line 2: negative task type";
  expect (g ^ "edge a b\n") "line 4: unrecognized directive: edge";
  expect (g ^ "edge a -> b data\n") "line 4: trailing tokens after edge";
  expect (g ^ "edge a -> b data x\n") "line 4: bad edge data: x";
  expect (g ^ "edge a -> b data 1 extra\n") "line 4: trailing tokens after edge";
  expect (g ^ "edge a -> c\n") "line 4: unknown task: c"

(* A cycle is only visible once the whole graph is read, so it is reported
   without a line. *)
let test_tgff_cycle_rejected () =
  let text =
    "graph g deadline 10\ntask a type 0\ntask b type 0\nedge a -> b\nedge b -> a\n"
  in
  match Tgff_io.of_string text with
  | Ok _ -> Alcotest.fail "cyclic graph accepted"
  | Error msg -> Alcotest.(check string) "error" "Graph.build: cyclic graph" msg

(* Every benchmark survives a text round trip with its structure, and
   printing the parsed graph gives back the same text. *)
let test_tgff_benchmarks_roundtrip () =
  Array.iter
    (fun g ->
      let text = Tgff_io.to_string g in
      match Tgff_io.of_string text with
      | Error msg -> Alcotest.failf "%s: %s" (Graph.name g) msg
      | Ok g' ->
          let name = Graph.name g in
          Alcotest.(check string) (name ^ ": text fixpoint") text (Tgff_io.to_string g');
          Alcotest.(check (float 0.0)) (name ^ ": deadline") (Graph.deadline g)
            (Graph.deadline g');
          Alcotest.(check (list (pair int int)))
            (name ^ ": edges")
            (List.map (fun e -> (e.Graph.src, e.Graph.dst)) (Graph.edges g))
            (List.map (fun e -> (e.Graph.src, e.Graph.dst)) (Graph.edges g'));
          Alcotest.(check (list (float 0.0)))
            (name ^ ": edge data")
            (List.map (fun e -> e.Graph.data) (Graph.edges g))
            (List.map (fun e -> e.Graph.data) (Graph.edges g'));
          Alcotest.(check (array int))
            (name ^ ": task types")
            (Array.map (fun t -> t.Task.task_type) (Graph.tasks g))
            (Array.map (fun t -> t.Task.task_type) (Graph.tasks g')))
    (Benchmarks.all ())

(* Numbers print with as few digits as read back exactly: short values
   stay short, and one needing 17 significant digits keeps them all. *)
let test_tgff_prints_exact_numbers () =
  let b = Graph.builder ~name:"n" ~deadline:(0.1 +. 0.2) in
  let t0 = Graph.add_task b ~name:"a" ~task_type:0 () in
  let t1 = Graph.add_task b ~name:"b" ~task_type:0 () in
  let t2 = Graph.add_task b ~name:"c" ~task_type:0 () in
  Graph.add_edge b ~data:33.5 t0 t1;
  Graph.add_edge b ~data:(1.0 /. 3.0) t1 t2;
  let g = Graph.build b in
  Alcotest.(check string) "text"
    "graph n deadline 0.30000000000000004\ntask a type 0\ntask b type 0\n\
     task c type 0\nedge a -> b data 33.5\nedge b -> c data 0.3333333333333333\n"
    (Tgff_io.to_string g);
  match Tgff_io.of_string (Tgff_io.to_string g) with
  | Error msg -> Alcotest.fail msg
  | Ok g' ->
      Alcotest.(check (float 0.0)) "deadline" (0.1 +. 0.2) (Graph.deadline g');
      Alcotest.(check (list (float 0.0))) "data" [ 33.5; 1.0 /. 3.0 ]
        (List.map (fun e -> e.Graph.data) (Graph.edges g'))

let test_tgff_load_missing_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "tats-no-such-file.tgff" in
  if Sys.file_exists path then Sys.remove path;
  match Tgff_io.load path with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

(* The fuzz helper makes exactly one edit: one byte replaced, deleted or
   inserted, everything around it kept. *)
let test_fuzz_mutate_is_one_edit () =
  let s = "graph g deadline 10\ntask a type 0\n" in
  for _ = 1 to 500 do
    let m = Fuzz.mutate s in
    let n = String.length s and k = String.length m in
    let rec prefix i = if i < n && i < k && s.[i] = m.[i] then prefix (i + 1) else i in
    let rec suffix j =
      if j < n && j < k && s.[n - 1 - j] = m.[k - 1 - j] then suffix (j + 1) else j
    in
    let p = prefix 0 and q = suffix 0 in
    Alcotest.(check bool) (Printf.sprintf "length %d -> %d" n k) true (abs (n - k) <= 1);
    let kept = if n = k then n - 1 else Stdlib.min n k in
    Alcotest.(check bool) (Printf.sprintf "one edit: %S" m) true (p + q >= kept)
  done

let prop_tgff_roundtrip_random =
  QCheck.Test.make ~name:"tgff roundtrip preserves structure" ~count:50
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, tasks) ->
      let lo, hi = Generator.feasible_edges ~n_tasks:tasks in
      let edges = lo + ((seed * 11) mod (Stdlib.max 1 (hi - lo + 1))) in
      let g =
        Generator.generate ~seed ~name:"q"
          { Generator.default_spec with Generator.n_tasks = tasks; n_edges = edges }
      in
      match Tgff_io.of_string (Tgff_io.to_string g) with
      | Error _ -> false
      | Ok g' ->
          Graph.n_tasks g' = tasks
          && Graph.n_edges g' = edges
          && List.for_all2
               (fun (a : Graph.edge) (b : Graph.edge) ->
                 a.Graph.src = b.Graph.src && a.Graph.dst = b.Graph.dst
                 && Float.abs (a.Graph.data -. b.Graph.data) < 1e-3)
               (Graph.edges g) (Graph.edges g'))

let () =
  Runner.run "extensions"
    [
      ( "tgff",
        [
          Alcotest.test_case "roundtrip" `Quick test_tgff_roundtrip_diamond;
          Alcotest.test_case "comments/blanks" `Quick test_tgff_parse_comments_and_blanks;
          Alcotest.test_case "error lines" `Quick test_tgff_errors_carry_line_numbers;
          Alcotest.test_case "file roundtrip" `Quick test_tgff_file_roundtrip;
          Alcotest.test_case "non-finite rejected" `Quick test_tgff_rejects_non_finite;
          Alcotest.test_case "fuzz" `Quick test_tgff_fuzz;
          Alcotest.test_case "range errors keep line" `Quick
            test_tgff_range_errors_keep_line;
          Alcotest.test_case "malformed directives" `Quick test_tgff_malformed_directives;
          Alcotest.test_case "cycle rejected" `Quick test_tgff_cycle_rejected;
          Alcotest.test_case "benchmarks roundtrip" `Quick test_tgff_benchmarks_roundtrip;
          Alcotest.test_case "exact numbers" `Quick test_tgff_prints_exact_numbers;
          Alcotest.test_case "missing file" `Quick test_tgff_load_missing_file;
          Alcotest.test_case "fuzz mutate is one edit" `Quick test_fuzz_mutate_is_one_edit;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_tgff_roundtrip_random ]);
    ]
