(* Property and differential tests for Tats_campaign.Campaign.

   Three pillars. (1) Expansion is a pure function of the spec:
   deterministic, duplicate-free, order-pinned — so cell content
   addresses are stable across processes and shards. (2) The artifact
   store is bit-exact: the same campaign run at pool jobs 1/2/4 writes
   byte-identical artifacts, every persisted result equals the direct
   Flow computation float for float, and a crashed store (truncated,
   corrupted, deleted artifacts) resumes to a manifest and artifact set
   byte-identical to an uninterrupted run. (3) The gate: a manifest
   self-compares clean, an injected regression fails at zero tolerance
   (and the CLI maps that to exit 2), and the same delta inside the
   tolerance is reported as drift, not failure. *)

module Graph = Tats_taskgraph.Graph
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
module Tgff_io = Tats_taskgraph.Tgff_io
module Catalog = Tats_techlib.Catalog
module Package = Tats_thermal.Package
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Metrics = Tats_sched.Metrics
module Flow = Tats_cosynth.Flow
module Pool = Tats_util.Pool
module Fsio = Tats_util.Fsio
module Campaign = Tats_campaign.Campaign
module Json = Tats_serve.Json
module Protocol = Tats_serve.Protocol
module Constraints = Tats_sched.Constraints
module Online = Tats_sched.Online

(* --- helpers -------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let scratch_counter = ref 0

(* A fresh, guaranteed-empty scratch directory under the system temp dir. *)
let fresh_dir tag =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tats-test-campaign-%d-%s-%d" (Unix.getpid ()) tag
         !scratch_counter)
  in
  Fsio.remove_recursive d;
  d

let with_dir tag f =
  let d = fresh_dir tag in
  Fun.protect ~finally:(fun () -> Fsio.remove_recursive d) (fun () -> f d)

let sorted_artifacts dir =
  let cells = Filename.concat dir "cells" in
  Sys.readdir cells |> Array.to_list |> List.sort compare

(* The small mixed campaign most tests run: benchmark + generated graph,
   two policies, two platform points (one budget-annotated). 8 cells, all
   on the fixed platform so the suite stays fast. *)
let small_spec =
  {
    Campaign.name = "camp-test";
    graphs =
      [
        Campaign.Bench 0;
        Campaign.Generated
          { seed = 7; n_tasks = 12; n_edges = 18; deadline = 600.0 };
      ];
    policies = [ Policy.Baseline; Policy.Thermal_aware ];
    platforms =
      [
        {
          Campaign.arch = Platform 4;
          ambient = 45.0;
          power_budget = None;
          pins = [];
          isolation = [];
        };
        {
          Campaign.arch = Platform 2;
          ambient = 55.0;
          power_budget = Some 20.0;
          pins = [];
          isolation = [];
        };
      ];
  }

(* --- expansion ------------------------------------------------------------ *)

let test_expansion_deterministic_duplicate_free () =
  (* Across a family of seeded specs: expanding twice yields the same id
     sequence, and no id repeats. *)
  for seed = 0 to 19 do
    let n_tasks = 8 + (seed mod 5) in
    let spec =
      {
        Campaign.name = Printf.sprintf "seeded%d" seed;
        graphs =
          [
            Campaign.Bench (seed mod 4);
            Campaign.Generated
              {
                seed;
                n_tasks;
                n_edges = n_tasks - 1 + (seed mod 7);
                deadline = 400.0 +. float_of_int seed;
              };
          ];
        policies = [ Policy.Baseline; Policy.Thermal_aware ];
        platforms =
          [
            {
              Campaign.arch = Platform (2 + (seed mod 3));
              ambient = 35.0 +. float_of_int (seed mod 4);
              power_budget = (if seed mod 2 = 0 then None else Some 25.0);
              pins = [];
              isolation = [];
            };
          ];
      }
    in
    let ids1 = List.map Campaign.cell_id (Campaign.expand spec) in
    let ids2 = List.map Campaign.cell_id (Campaign.expand spec) in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: expansion deterministic" seed)
      ids1 ids2;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: duplicate-free" seed)
      (List.length ids1)
      (List.length (List.sort_uniq compare ids1))
  done

let test_expansion_order_pinned () =
  (* Graphs outermost, platforms innermost — the manifest's expansion
     order, which sharding and resume both key off. *)
  let cells = Campaign.expand small_spec in
  Alcotest.(check int) "8 cells" 8 (List.length cells);
  Alcotest.(check int) "n_cells agrees" 8 (Campaign.n_cells small_spec);
  let labels = List.map Campaign.cell_label cells in
  Alcotest.(check string) "first cell" "Bm1/baseline/p4@45C"
    (List.nth labels 0);
  Alcotest.(check string) "platform axis spins fastest"
    "Bm1/baseline/p2@55C/b20" (List.nth labels 1);
  Alcotest.(check string) "policy axis next" "Bm1/thermal/p4@45C"
    (List.nth labels 2);
  Alcotest.(check string) "graph axis outermost" "gen7x12/baseline/p4@45C"
    (List.nth labels 4)

let test_invalid_specs_rejected () =
  let raises what spec =
    match Campaign.expand spec with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "empty graph axis" { small_spec with Campaign.graphs = [] };
  raises "empty policy axis" { small_spec with Campaign.policies = [] };
  raises "empty platform axis" { small_spec with Campaign.platforms = [] };
  raises "bench index out of range"
    { small_spec with Campaign.graphs = [ Campaign.Bench 99 ] };
  raises "infeasible generated edges"
    {
      small_spec with
      Campaign.graphs =
        [ Campaign.Generated { seed = 1; n_tasks = 4; n_edges = 100; deadline = 10.0 } ];
    };
  raises "duplicate cells"
    { small_spec with Campaign.policies = [ Policy.Baseline; Policy.Baseline ] }

let test_cell_id_is_content_address () =
  let cells = Campaign.expand small_spec in
  let c0 = List.nth cells 0 and c1 = List.nth cells 1 in
  Alcotest.(check string) "id stable across calls" (Campaign.cell_id c0)
    (Campaign.cell_id c0);
  Alcotest.(check bool) "distinct cells get distinct ids" true
    (Campaign.cell_id c0 <> Campaign.cell_id c1);
  Alcotest.(check int) "md5 hex length" 32 (String.length (Campaign.cell_id c0))

let test_spec_json_round_trip () =
  List.iter
    (fun spec ->
      let s = Campaign.spec_to_string spec in
      match Campaign.spec_of_string s with
      | Error e -> Alcotest.failf "%s: round trip failed: %s" spec.Campaign.name e
      | Ok spec' ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: round trips structurally" spec.Campaign.name)
            true (spec = spec');
          Alcotest.(check string)
            (Printf.sprintf "%s: re-encoding is byte-stable" spec.Campaign.name)
            s
            (Campaign.spec_to_string spec'))
    (small_spec
    :: List.filter_map Campaign.builtin Campaign.builtin_names);
  match Campaign.spec_of_string "{\"name\":3}" with
  | Ok _ -> Alcotest.fail "malformed spec accepted"
  | Error _ -> ()

let test_builtin_expansions () =
  let count name =
    match Campaign.builtin name with
    | None -> Alcotest.failf "builtin %s missing" name
    | Some spec -> List.length (Campaign.expand spec)
  in
  Alcotest.(check int) "table1 = 4 graphs x 4 policies x 2 archs" 32
    (count "table1");
  Alcotest.(check int) "table2 = 4 x 2 x 1" 8 (count "table2");
  Alcotest.(check int) "table3 = 4 x 2 x 1" 8 (count "table3");
  Alcotest.(check int) "golden = 2 x 3 x 2" 12 (count "golden");
  Alcotest.(check int) "sweep1k = 18 x 5 x 12" 1080 (count "sweep1k");
  Alcotest.(check bool) "unknown builtin is None" true
    (Campaign.builtin "nope" = None)

(* --- generated graphs at scale -------------------------------------------- *)

let test_scaled_generated_dags_validate () =
  (* The thousands-of-node axis: a >= 1000-task scaled spec generates a
     graph with exactly the requested counts, acyclic (every edge points
     forward in a topological order) and weakly connected. *)
  let n_tasks = 1200 in
  let spec = Generator.scaled_spec ~n_tasks in
  let lo, hi = Generator.feasible_edges ~n_tasks in
  Alcotest.(check bool) "edge count feasible" true
    (spec.Generator.n_edges >= lo && spec.Generator.n_edges <= hi);
  Alcotest.(check int) "task types match the stock libraries"
    Benchmarks.n_task_types spec.Generator.n_task_types;
  let g = Generator.generate ~seed:42 ~name:"big" spec in
  Alcotest.(check int) "task count exact" n_tasks (Graph.n_tasks g);
  Alcotest.(check int) "edge count exact" spec.Generator.n_edges
    (Graph.n_edges g);
  Alcotest.(check bool) "weakly connected" true (Graph.is_weakly_connected g);
  let order = Graph.topological_order g in
  Alcotest.(check int) "topological order covers every task" n_tasks
    (Array.length order);
  let position = Array.make n_tasks 0 in
  Array.iteri (fun i id -> position.(id) <- i) order;
  List.iter
    (fun { Graph.src; dst; _ } ->
      if position.(src) >= position.(dst) then
        Alcotest.failf "edge %d -> %d not precedence-closed" src dst)
    (Graph.edges g)

let test_scaled_generation_seed_reproducible () =
  let spec = Generator.scaled_spec ~n_tasks:1000 in
  let render seed =
    Tgff_io.to_string (Generator.generate ~seed ~name:"big" spec)
  in
  Alcotest.(check string) "same seed, same graph" (render 5) (render 5);
  Alcotest.(check bool) "different seed, different graph" true
    (render 5 <> render 6)

(* --- artifact bit-identity ------------------------------------------------ *)

let run_into ?pool ?shards ?shard dir =
  Campaign.run ?pool ?shards ?shard ~dir small_spec

let test_results_bit_identical_across_jobs_and_flow () =
  (* Run the same campaign at pool jobs 1, 2 and 4: every artifact (and
     the manifest) must come out byte-identical, and the persisted floats
     must equal a direct Flow computation exactly — no tolerance. *)
  with_dir "jobs" @@ fun root ->
  let dirs =
    List.map
      (fun jobs ->
        let dir = Filename.concat root (Printf.sprintf "j%d" jobs) in
        Pool.with_pool ~jobs (fun pool ->
            let r = run_into ~pool dir in
            Alcotest.(check int)
              (Printf.sprintf "jobs %d computed all" jobs)
              8 r.Campaign.computed;
            Alcotest.(check bool)
              (Printf.sprintf "jobs %d manifest written" jobs)
              true r.Campaign.manifest_written);
        dir)
      [ 1; 2; 4 ]
  in
  let reference = List.hd dirs in
  let ref_names = sorted_artifacts reference in
  Alcotest.(check int) "one artifact per cell" 8 (List.length ref_names);
  List.iter
    (fun dir ->
      Alcotest.(check (list string)) "same artifact set" ref_names
        (sorted_artifacts dir);
      List.iter
        (fun name ->
          Alcotest.(check string)
            (Printf.sprintf "artifact %s byte-identical" name)
            (read_file (Filename.concat (Filename.concat reference "cells") name))
            (read_file (Filename.concat (Filename.concat dir "cells") name)))
        ref_names;
      Alcotest.(check string) "manifest byte-identical"
        (read_file (Campaign.manifest_path reference))
        (read_file (Campaign.manifest_path dir)))
    (List.tl dirs);
  (* Persisted results vs the flow run directly, float for float. *)
  let manifest =
    match Campaign.load_manifest ~dir:reference with
    | Ok m -> m
    | Error e -> Alcotest.failf "manifest unreadable: %s" e
  in
  List.iter
    (fun (e : Campaign.entry) ->
      let c = e.Campaign.cell in
      let direct = Campaign.run_cell c in
      let stored = e.Campaign.result in
      let exact what a b =
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s bit-identical" (Campaign.cell_label c) what)
          true
          (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
      in
      exact "makespan" direct.Campaign.makespan stored.Campaign.makespan;
      exact "total power" direct.Campaign.total_power stored.Campaign.total_power;
      exact "max temp" direct.Campaign.max_temp stored.Campaign.max_temp;
      exact "avg temp" direct.Campaign.avg_temp stored.Campaign.avg_temp;
      Alcotest.(check bool) "budget flag consistent"
        (match c.Campaign.platform.Campaign.power_budget with
        | None -> true
        | Some b -> stored.Campaign.total_power <= b)
        stored.Campaign.within_budget)
    manifest.Campaign.entries

let test_run_cell_matches_direct_flow () =
  (* Spell the equivalence out against Flow itself (not just run_cell
     twice): the campaign layer adds persistence, never arithmetic. *)
  let cell =
    {
      Campaign.graph = Campaign.Bench 0;
      policy = Policy.Thermal_aware;
      platform =
        {
          Campaign.arch = Platform 2;
          ambient = 55.0;
          power_budget = Some 20.0;
          pins = [];
          isolation = [];
        };
    }
  in
  let r = Campaign.run_cell cell in
  let outcome =
    Flow.run_platform ~n_pes:2
      ~package:{ Package.default with Package.ambient = 55.0 }
      ~graph:(Benchmarks.load 0)
      ~lib:(Catalog.platform_library ())
      ~policy:Policy.Thermal_aware ()
  in
  let exact what a b =
    Alcotest.(check bool) what true
      (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  exact "makespan" outcome.Flow.schedule.Schedule.makespan r.Campaign.makespan;
  exact "total power" outcome.Flow.row.Metrics.total_power
    r.Campaign.total_power;
  exact "max temp" outcome.Flow.row.Metrics.max_temp r.Campaign.max_temp;
  exact "avg temp" outcome.Flow.row.Metrics.avg_temp r.Campaign.avg_temp

(* --- crash / resume differential ------------------------------------------ *)

let test_crash_resume_differential () =
  (* Reference: one uninterrupted run. Victim: a partial shard, then
     three injected failure modes (truncated artifact, corrupted byte,
     deleted artifact), then a resume — which must detect all three,
     recompute them, and converge to the reference store byte for byte. *)
  with_dir "resume" @@ fun root ->
  let ref_dir = Filename.concat root "ref"
  and victim = Filename.concat root "victim" in
  let r = run_into ref_dir in
  Alcotest.(check bool) "reference complete" true r.Campaign.manifest_written;
  (* Interrupted campaign: only shard 0 of 2 ran. *)
  let partial = run_into ~shards:2 ~shard:0 victim in
  Alcotest.(check int) "shard covers half the cells" 4
    partial.Campaign.shard_cells;
  Alcotest.(check bool) "no manifest from a partial store" false
    partial.Campaign.manifest_written;
  Alcotest.(check bool) "no manifest file either" false
    (Sys.file_exists (Campaign.manifest_path victim));
  (match Campaign.load_manifest ~dir:victim with
  | Ok _ -> Alcotest.fail "load_manifest succeeded on incomplete store"
  | Error _ -> ());
  (* Injected damage: truncate one artifact mid-write, flip a byte in a
     second, delete a third. *)
  (match sorted_artifacts victim with
  | a :: b :: c :: _ ->
      let path name = Filename.concat (Filename.concat victim "cells") name in
      let bytes_a = read_file (path a) in
      Fsio.write_atomic (path a)
        (String.sub bytes_a 0 (String.length bytes_a / 2));
      let bytes_b = Bytes.of_string (read_file (path b)) in
      Bytes.set bytes_b (Bytes.length bytes_b / 2) '#';
      Fsio.write_atomic (path b) (Bytes.to_string bytes_b);
      Sys.remove (path c)
  | _ -> Alcotest.fail "expected at least 3 artifacts in shard 0");
  (* Resume: same entry point, no special mode. *)
  let resumed = Pool.with_pool ~jobs:4 (fun pool -> run_into ~pool victim) in
  Alcotest.(check int) "both damaged artifacts detected" 2
    resumed.Campaign.invalid;
  Alcotest.(check int) "damage + deletion + other shard recomputed"
    (4 + 3) resumed.Campaign.computed;
  Alcotest.(check int) "intact artifact reused" 1 resumed.Campaign.reused;
  Alcotest.(check bool) "manifest written on completion" true
    resumed.Campaign.manifest_written;
  (* The store must now be indistinguishable from the uninterrupted run. *)
  Alcotest.(check string) "manifest byte-identical to uninterrupted run"
    (read_file (Campaign.manifest_path ref_dir))
    (read_file (Campaign.manifest_path victim));
  let names = sorted_artifacts ref_dir in
  Alcotest.(check (list string)) "artifact sets agree" names
    (sorted_artifacts victim);
  List.iter
    (fun name ->
      Alcotest.(check string)
        (Printf.sprintf "artifact %s byte-identical" name)
        (read_file (Filename.concat (Filename.concat ref_dir "cells") name))
        (read_file (Filename.concat (Filename.concat victim "cells") name)))
    names;
  (* A further resume over the complete store is a no-op that still
     rewrites the same manifest bytes. *)
  let noop = run_into victim in
  Alcotest.(check int) "no-op resume computes nothing" 0 noop.Campaign.computed;
  Alcotest.(check int) "no-op resume reuses everything" 8 noop.Campaign.reused;
  Alcotest.(check bool) "manifest still written" true
    noop.Campaign.manifest_written;
  Alcotest.(check string) "manifest bytes unchanged"
    (read_file (Campaign.manifest_path ref_dir))
    (read_file (Campaign.manifest_path victim))

(* --- gating --------------------------------------------------------------- *)

let completed_manifest =
  lazy
    (let dir = fresh_dir "gate" in
     ignore (run_into dir);
     let m =
       match Campaign.load_manifest ~dir with
       | Ok m -> m
       | Error e -> Alcotest.failf "manifest unreadable: %s" e
     in
     Fsio.remove_recursive dir;
     m)

(* A baseline with max_temp lowered by [delta] on every cell, so the
   candidate (the real manifest) looks [delta] hotter. *)
let cooled_baseline m delta =
  {
    m with
    Campaign.entries =
      List.map
        (fun (e : Campaign.entry) ->
          {
            e with
            Campaign.result =
              {
                e.Campaign.result with
                Campaign.max_temp = e.Campaign.result.Campaign.max_temp -. delta;
              };
          })
        m.Campaign.entries;
  }

let test_gate_self_comparison_passes () =
  let m = Lazy.force completed_manifest in
  let g = Campaign.gate ~tol:Campaign.zero_tolerance ~baseline:m ~candidate:m in
  Alcotest.(check int) "all cells compared" 8 g.Campaign.compared;
  Alcotest.(check int) "all clean" 8 g.Campaign.clean;
  Alcotest.(check bool) "no drift" true (g.Campaign.drifted = []);
  Alcotest.(check bool) "no regressions" true (g.Campaign.regressed = []);
  Alcotest.(check bool) "gate passes" true (Campaign.gate_passes g)

let test_gate_flags_regressions_and_tolerates_drift () =
  let m = Lazy.force completed_manifest in
  let baseline = cooled_baseline m 0.5 in
  (* Zero tolerance: every cell regressed on max_temp. *)
  let strict =
    Campaign.gate ~tol:Campaign.zero_tolerance ~baseline ~candidate:m
  in
  Alcotest.(check int) "every cell regressed" 8
    (List.length strict.Campaign.regressed);
  Alcotest.(check bool) "strict gate fails" false
    (Campaign.gate_passes strict);
  List.iter
    (fun (f : Campaign.finding) ->
      Alcotest.(check string) "finding names the metric" "max_temp"
        f.Campaign.g_metric;
      Alcotest.(check bool) "delta magnitude right" true
        (Float.abs (f.Campaign.g_cand -. f.Campaign.g_base -. 0.5) < 1e-9))
    strict.Campaign.regressed;
  (* The same delta within tolerance: drift, and the gate passes. *)
  let tolerant =
    Campaign.gate
      ~tol:{ Campaign.zero_tolerance with Campaign.tol_max_temp = 1.5 }
      ~baseline ~candidate:m
  in
  Alcotest.(check int) "all drifted" 8 (List.length tolerant.Campaign.drifted);
  Alcotest.(check bool) "no regression within tolerance" true
    (tolerant.Campaign.regressed = []);
  Alcotest.(check bool) "tolerant gate passes" true
    (Campaign.gate_passes tolerant)

let test_gate_missing_and_extra_cells () =
  let m = Lazy.force completed_manifest in
  let truncated =
    { m with Campaign.entries = List.tl m.Campaign.entries }
  in
  let g =
    Campaign.gate ~tol:Campaign.zero_tolerance ~baseline:m ~candidate:truncated
  in
  Alcotest.(check int) "one baseline cell missing" 1
    (List.length g.Campaign.missing);
  Alcotest.(check bool) "missing cells fail the gate" false
    (Campaign.gate_passes g);
  let g' =
    Campaign.gate ~tol:Campaign.zero_tolerance ~baseline:truncated ~candidate:m
  in
  Alcotest.(check int) "extra candidate cell reported" 1
    (List.length g'.Campaign.extra);
  Alcotest.(check bool) "extra cells are informational" true
    (Campaign.gate_passes g')

let test_manifest_round_trip () =
  let m = Lazy.force completed_manifest in
  let s = Campaign.manifest_to_string m in
  match Campaign.manifest_of_string s with
  | Error e -> Alcotest.failf "manifest round trip failed: %s" e
  | Ok m' ->
      Alcotest.(check bool) "round trips structurally" true (m = m');
      Alcotest.(check string) "re-encoding byte-stable" s
        (Campaign.manifest_to_string m')

(* --- one codec for tatsd requests and spec files ------------------------ *)

(* Malformed pins/isolation members, each with the error both front ends
   must give for it. *)
let malformed_constraints =
  let pin_shape =
    {|field "pins": each pin must be {"task": int, "pe": int} or {"task": int, "kind": int}|}
  in
  [
    ("negative task", {|"pins":[{"task":-1,"pe":0}]|}, pin_shape);
    ("fractional pe", {|"pins":[{"task":0,"pe":0.5}]|}, pin_shape);
    ("both pe and kind", {|"pins":[{"task":0,"pe":1,"kind":1}]|}, pin_shape);
    ("non-array pins", {|"pins":7|}, {|field "pins": must be an array of pin objects|});
    ( "non-array isolation",
      {|"isolation":"none"|},
      {|field "isolation": must be an array of class objects|} );
    ( "string class",
      {|"isolation":[{"task":0,"class":"a"}]|},
      {|field "isolation": each entry must be {"task": int, "class": int}|} );
  ]

let test_same_input_same_verdict () =
  List.iter
    (fun (what, member, expected) ->
      let request kind =
        match Json.of_string (Printf.sprintf {|{"kind":%S,%s}|} kind member) with
        | Error e -> Alcotest.failf "%s: fixture does not parse: %s" what e
        | Ok j -> Result.map (fun _ -> ()) (Protocol.request_of_json j)
      in
      let spec =
        Campaign.spec_of_string
          (Printf.sprintf
             {|{"name":"v","graphs":[{"bench":0}],"policies":["baseline"],"platforms":[{"arch":"platform","n_pes":4,"ambient":45,%s}]}|}
             member)
      in
      let verdict = Alcotest.(result unit string) in
      Alcotest.check verdict (what ^ ": schedule request") (Error expected)
        (request "schedule");
      Alcotest.check verdict (what ^ ": online request") (Error expected)
        (request "online");
      Alcotest.check verdict (what ^ ": campaign spec") (Error expected)
        (Result.map (fun _ -> ()) spec))
    malformed_constraints

(* Captured before the pins/isolation codec moved into Protocol: the
   wire bytes of constrained requests, and a constrained hetero spec's
   canonical encoding and cell id, stay exactly these. *)
let test_encodings_pinned () =
  let pins = [ (0, Constraints.To_pe 1); (3, Constraints.To_kind 2) ] in
  let isolation = [ (1, 0); (2, 1) ] in
  let wire kind = Json.to_string (Protocol.request_to_json kind) in
  Alcotest.(check string)
    "schedule request"
    {|{"id":7,"kind":"schedule","bench":"Bm3","policy":"thermal","arch":"platform","n_pes":4,"platform":"mixed6","pins":[{"task":0,"pe":1},{"task":3,"kind":2}],"isolation":[{"task":1,"class":0},{"task":2,"class":1}]}|}
    (wire
       (Protocol.request ~id:(Json.Num 7.0)
          (Protocol.Schedule
             {
               Protocol.bench = 2;
               policy = Policy.Thermal_aware;
               arch = Protocol.Platform;
               n_pes = 4;
               platform = Some "mixed6";
               pins;
               isolation;
             })));
  Alcotest.(check string)
    "online request"
    {|{"kind":"online","bench":"Bm2","policy":"thermal","arrivals":"sporadic","seed":5,"mean_gap":12.5,"n_pes":4,"platform":"biglittle4","pins":[{"task":0,"pe":1},{"task":3,"kind":2}],"isolation":[{"task":1,"class":0},{"task":2,"class":1}]}|}
    (wire
       (Protocol.request
          (Protocol.Online
             {
               Protocol.o_bench = 1;
               o_n_pes = 4;
               o_policy = Online.Mirror Policy.Thermal_aware;
               o_arrivals = Protocol.Sporadic;
               o_seed = 5;
               o_mean_gap = 12.5;
               o_platform = Some "biglittle4";
               o_pins = pins;
               o_isolation = isolation;
             })));
  let spec =
    {
      Campaign.name = "lit";
      graphs = [ Campaign.Bench 0 ];
      policies = [ Policy.Baseline ];
      platforms =
        [
          {
            Campaign.arch = Campaign.Hetero "mixed6";
            ambient = 45.0;
            power_budget = Some 30.0;
            pins;
            isolation;
          };
        ];
    }
  in
  Alcotest.(check string)
    "spec encoding"
    {|{"name":"lit","graphs":[{"bench":0}],"policies":["baseline"],"platforms":[{"arch":"hetero","platform":"mixed6","ambient":45,"power_budget":30,"pins":[{"task":0,"pe":1},{"task":3,"kind":2}],"isolation":[{"task":1,"class":0},{"task":2,"class":1}]}]}|}
    (Campaign.spec_to_string spec);
  Alcotest.(check (list string))
    "cell id" [ "7b2269e72bea1c5e2ac5baaa852e65b6" ]
    (List.map Campaign.cell_id (Campaign.expand spec))

(* Random bytes and single-byte mutations of every builtin's encoding
   decode to Ok or Error; nothing escapes as an exception. *)
let test_spec_fuzz () =
  let parse text =
    match Campaign.spec_of_string text with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "spec_of_string raised %s on %S" (Printexc.to_string e) text
  in
  for _ = 1 to 500 do
    parse (Fuzz.rand_string 120)
  done;
  List.iter
    (fun name ->
      let text = Campaign.spec_to_string (Option.get (Campaign.builtin name)) in
      for _ = 1 to 200 do
        parse (Fuzz.mutate text)
      done)
    Campaign.builtin_names

(* --- CLI ------------------------------------------------------------------ *)

let test_cli_run_report_gate () =
  (* End to end through bin/tats.exe: run a spec file, render the report,
     self-gate (exit 0), then gate against a cooled baseline (exit 2). *)
  with_dir "cli" @@ fun root ->
  Fsio.mkdir_p root;
  let spec_file = Filename.concat root "spec.json"
  and dir = Filename.concat root "store" in
  Fsio.write_atomic spec_file (Campaign.spec_to_string small_spec);
  let sh fmt = Printf.ksprintf Sys.command fmt in
  let rc =
    sh "../bin/tats.exe campaign run --spec-file %s --dir %s --jobs 2 >%s 2>&1"
      spec_file dir
      (Filename.concat root "run.txt")
  in
  Alcotest.(check int) "campaign run exits 0" 0 rc;
  Alcotest.(check bool) "manifest exists" true
    (Sys.file_exists (Campaign.manifest_path dir));
  let rc =
    sh "../bin/tats.exe campaign report --spec-file %s --dir %s >%s 2>&1"
      spec_file dir
      (Filename.concat root "report.txt")
  in
  Alcotest.(check int) "campaign report exits 0" 0 rc;
  Alcotest.(check bool) "report mentions the campaign" true
    (contains_substring (read_file (Filename.concat root "report.txt"))
       "camp-test");
  let self_baseline = Campaign.manifest_path dir in
  let rc =
    sh
      "../bin/tats.exe campaign gate --spec-file %s --dir %s --baseline %s \
       >%s 2>&1"
      spec_file dir self_baseline
      (Filename.concat root "gate-ok.txt")
  in
  Alcotest.(check int) "self gate exits 0" 0 rc;
  (* Inject a regression: a baseline 0.5 degC cooler than reality. *)
  let m =
    match Campaign.load_manifest ~dir with
    | Ok m -> m
    | Error e -> Alcotest.failf "manifest unreadable: %s" e
  in
  let cooled = Filename.concat root "cooled.json" in
  Fsio.write_atomic cooled (Campaign.manifest_to_string (cooled_baseline m 0.5));
  let rc =
    sh
      "../bin/tats.exe campaign gate --spec-file %s --dir %s --baseline %s \
       >%s 2>&1"
      spec_file dir cooled
      (Filename.concat root "gate-fail.txt")
  in
  Alcotest.(check int) "regression gate exits 2" 2 rc;
  (* And the same baseline passes once the drift is tolerated. *)
  let rc =
    sh
      "../bin/tats.exe campaign gate --spec-file %s --dir %s --baseline %s \
       --tol-max-temp 1.5 >%s 2>&1"
      spec_file dir cooled
      (Filename.concat root "gate-tol.txt")
  in
  Alcotest.(check int) "tolerated drift exits 0" 0 rc;
  (* Bad spec files are bad input, not crashes: exit 2, the problem named
     on stderr. One fails only when its cell runs, one at decode. *)
  List.iter
    (fun (tag, text, problem) ->
      let file = Filename.concat root (tag ^ ".json")
      and out = Filename.concat root (tag ^ ".txt") in
      Fsio.write_atomic file text;
      let rc =
        sh "../bin/tats.exe campaign run --spec-file %s --dir %s >%s 2>&1" file
          (Filename.concat root (tag ^ "-store"))
          out
      in
      let err = read_file out in
      Alcotest.(check int) (tag ^ " exits 2") 2 rc;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names %S" tag err problem)
        true
        (contains_substring err problem);
      Alcotest.(check bool)
        (tag ^ ": no uncaught exception")
        false
        (contains_substring err "uncaught exception"))
    [
      ( "bad-pin",
        {|{"name":"bad","graphs":[{"bench":0}],"policies":["baseline"],"platforms":[{"arch":"platform","n_pes":4,"ambient":45,"pins":[{"task":999,"pe":0}]}]}|},
        "pinned task 999 out of range" );
      ( "bad-bench",
        {|{"name":"bad","graphs":[{"bench":9}],"policies":["baseline"],"platforms":[{"arch":"platform","n_pes":4,"ambient":45}]}|},
        "benchmark index 9 out of range" );
    ]

(* --- alias drift ---------------------------------------------------------- *)

let test_fast_suite_aliases_exist () =
  (* The subsystem batteries each have a fast dune alias
     (`dune build @online` ...), and runtest reruns the online, campaign
     and hetero ones; pin test/dune to the names so a rule cannot silently
     disappear. *)
  let dune =
    let candidates = [ "dune"; "../../../test/dune"; "test/dune" ] in
    match List.find_opt Sys.file_exists candidates with
    | Some path -> read_file path
    | None -> Alcotest.fail "test/dune not found from the test cwd"
  in
  List.iter
    (fun alias ->
      Alcotest.(check bool)
        (Printf.sprintf "dune rule for @%s exists" alias)
        true
        (contains_substring dune (Printf.sprintf "(alias %s)" alias)))
    [ "online"; "serve"; "campaign"; "hetero" ]

let () =
  Runner.run "campaign"
    [
      ( "expansion",
        [
          Alcotest.test_case "deterministic and duplicate-free" `Quick
            test_expansion_deterministic_duplicate_free;
          Alcotest.test_case "order pinned" `Quick test_expansion_order_pinned;
          Alcotest.test_case "invalid specs rejected" `Quick
            test_invalid_specs_rejected;
          Alcotest.test_case "cell ids are content addresses" `Quick
            test_cell_id_is_content_address;
          Alcotest.test_case "spec JSON round trip" `Quick
            test_spec_json_round_trip;
          Alcotest.test_case "builtin expansions" `Quick
            test_builtin_expansions;
        ] );
      ( "generated graphs",
        [
          Alcotest.test_case "1200-task DAG validates" `Quick
            test_scaled_generated_dags_validate;
          Alcotest.test_case "1000-task generation seed-reproducible" `Quick
            test_scaled_generation_seed_reproducible;
        ] );
      ( "bit identity",
        [
          Alcotest.test_case "artifacts identical at jobs 1/2/4" `Quick
            test_results_bit_identical_across_jobs_and_flow;
          Alcotest.test_case "run_cell equals direct Flow" `Quick
            test_run_cell_matches_direct_flow;
        ] );
      ( "crash resume",
        [
          Alcotest.test_case "differential vs uninterrupted run" `Quick
            test_crash_resume_differential;
        ] );
      ( "gate",
        [
          Alcotest.test_case "self comparison passes" `Quick
            test_gate_self_comparison_passes;
          Alcotest.test_case "regression vs tolerated drift" `Quick
            test_gate_flags_regressions_and_tolerates_drift;
          Alcotest.test_case "missing and extra cells" `Quick
            test_gate_missing_and_extra_cells;
          Alcotest.test_case "manifest round trip" `Quick
            test_manifest_round_trip;
        ] );
      ( "codec",
        [
          Alcotest.test_case "same input, same verdict" `Quick
            test_same_input_same_verdict;
          Alcotest.test_case "encodings pinned" `Quick test_encodings_pinned;
          Alcotest.test_case "spec fuzz" `Quick test_spec_fuzz;
        ] );
      ( "cli",
        [
          Alcotest.test_case "run / report / gate exit codes" `Quick
            test_cli_run_report_gate;
        ] );
      ( "drift",
        [
          Alcotest.test_case "fast-suite dune aliases exist" `Quick
            test_fast_suite_aliases_exist;
        ] );
    ]
