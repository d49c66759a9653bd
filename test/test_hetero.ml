(* Heterogeneous-platform battery.

   Every fixed-architecture flow runs on a typed platform; [?n_pes] is
   sugar for the single-kind [std<n>] one. This suite holds the typed
   flow to its claims from three sides:

   - Differential: the named single-kind platform (std4) must reproduce
     the [?n_pes] sugar bit for bit under every policy, pool size,
     scheduler (list / HEFT) and the online event loop — schedules entry
     by entry, metrics at the Int64 level.
   - Properties (seeded): on genuinely mixed platforms, pins are honored
     and isolation classes never co-locate, checked post hoc with
     [Constraints.violations] over generated DAGs.
   - Rejection: contradictory specs fail up front with [Constraints.Invalid]
     and a descriptive message; runtime dead-ends raise
     [Constraints.Infeasible] naming the scheduler.

   Plus the campaign "hetero" builtin (expansion, labels, round-trip,
   validation), since the campaign layer is how these cells enter CI. *)

module Flow = Tats_cosynth.Flow
module Catalog = Tats_techlib.Catalog
module Platform = Tats_techlib.Platform
module Library = Tats_techlib.Library
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Constraints = Tats_sched.Constraints
module List_sched = Tats_sched.List_sched
module Heft = Tats_sched.Heft
module Online = Tats_sched.Online
module Metrics = Tats_sched.Metrics
module Benchmarks = Tats_taskgraph.Benchmarks
module Graph = Tats_taskgraph.Graph
module Generator = Tats_taskgraph.Generator
module Pool = Tats_util.Pool
module Campaign = Tats_campaign.Campaign

let bits = Int64.bits_of_float

let exact what a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s (%h vs %h)" what a b)
    true
    (Int64.equal (bits a) (bits b))

let std4 () = Option.get (Catalog.platform_named "std4")
let biglittle4 () = Option.get (Catalog.platform_named "biglittle4")
let mixed6 () = Option.get (Catalog.platform_named "mixed6")

let schedules_identical what (a : Schedule.t) (b : Schedule.t) =
  Alcotest.(check int)
    (what ^ ": n_pes") (Schedule.n_pes a) (Schedule.n_pes b);
  exact (what ^ ": makespan") a.Schedule.makespan b.Schedule.makespan;
  Alcotest.(check int)
    (what ^ ": entry count")
    (Array.length a.Schedule.entries)
    (Array.length b.Schedule.entries);
  Array.iteri
    (fun i (ea : Schedule.entry) ->
      let eb = b.Schedule.entries.(i) in
      let w fmt = Printf.sprintf "%s: task %d %s" what i fmt in
      Alcotest.(check int) (w "pe") ea.Schedule.pe eb.Schedule.pe;
      exact (w "start") ea.Schedule.start eb.Schedule.start;
      exact (w "finish") ea.Schedule.finish eb.Schedule.finish;
      exact (w "energy") ea.Schedule.energy eb.Schedule.energy)
    a.Schedule.entries

let assignment (s : Schedule.t) =
  Array.map (fun (e : Schedule.entry) -> e.Schedule.pe) s.Schedule.entries

(* --- differential: the degenerate platform is the homogeneous path ------- *)

let test_degenerate_library_identical () =
  (* library_for std4 must draw the same RNG stream as platform_library:
     same task types, same WCET/WCPC tables on the single kind. *)
  let classic = Catalog.platform_library () in
  let typed = Catalog.library_for (std4 ()) in
  Alcotest.(check int)
    "task types" (Library.n_task_types classic) (Library.n_task_types typed);
  Alcotest.(check int) "kinds" 1 (Array.length (Library.kinds typed));
  for tt = 0 to Library.n_task_types classic - 1 do
    exact
      (Printf.sprintf "wcet type %d" tt)
      (Library.wcet classic ~task_type:tt ~kind:0)
      (Library.wcet typed ~task_type:tt ~kind:0);
    exact
      (Printf.sprintf "wcpc type %d" tt)
      (Library.wcpc classic ~task_type:tt ~kind:0)
      (Library.wcpc typed ~task_type:tt ~kind:0)
  done

let test_degenerate_flow_bit_identity () =
  (* Every policy, benches Bm1/Bm2, pool jobs 1 and 4: the named std4
     platform vs the [?n_pes] sugar, compared on the full schedule and
     every reported metric. *)
  let platform = std4 () in
  List.iter
    (fun jobs ->
      Pool.set_default_jobs jobs;
      List.iter
        (fun bench ->
          let graph = Benchmarks.load bench in
          List.iter
            (fun policy ->
              let what =
                Printf.sprintf "%s/%s/jobs%d" (Graph.name graph)
                  (Policy.name policy) jobs
              in
              let classic =
                Flow.run_platform ~graph
                  ~lib:(Catalog.platform_library ())
                  ~policy ()
              in
              let typed =
                Flow.run_platform ~platform ~graph
                  ~lib:(Catalog.library_for platform)
                  ~policy ()
              in
              schedules_identical what classic.Flow.schedule typed.Flow.schedule;
              exact (what ^ ": total power") classic.Flow.row.Metrics.total_power
                typed.Flow.row.Metrics.total_power;
              exact (what ^ ": max temp") classic.Flow.row.Metrics.max_temp
                typed.Flow.row.Metrics.max_temp;
              exact (what ^ ": avg temp") classic.Flow.row.Metrics.avg_temp
                typed.Flow.row.Metrics.avg_temp;
              exact (what ^ ": arch cost") classic.Flow.arch_cost
                typed.Flow.arch_cost)
            Policy.all)
        [ 0; 1 ])
    [ 1; 4 ];
  Pool.set_default_jobs 1

let test_degenerate_heft_bit_identity () =
  let graph = Benchmarks.load 0 in
  let classic =
    Heft.run ~graph
      ~lib:(Catalog.platform_library ())
      ~pes:(Catalog.platform_instances 4) ()
  in
  let platform = std4 () in
  let typed =
    Heft.run ~graph
      ~lib:(Catalog.library_for platform)
      ~pes:(Platform.instances platform) ()
  in
  schedules_identical "heft std4" classic typed

let test_degenerate_online_bit_identity () =
  (* The online event loop through the same lens: zero and sporadic
     arrival streams, mirror policy, online + clairvoyant schedules. *)
  let graph = Benchmarks.load 0 in
  let platform = std4 () in
  List.iter
    (fun arrivals ->
      let classic =
        Flow.run_online ~arrivals ~graph
          ~lib:(Catalog.platform_library ())
          ~policy:(Online.Mirror Policy.Thermal_aware) ()
      in
      let typed =
        Flow.run_online ~platform ~arrivals ~graph
          ~lib:(Catalog.library_for platform)
          ~policy:(Online.Mirror Policy.Thermal_aware) ()
      in
      let what = Flow.arrival_source_name arrivals in
      schedules_identical (what ^ " online")
        classic.Flow.online.Online.schedule typed.Flow.online.Online.schedule;
      schedules_identical (what ^ " clairvoyant")
        classic.Flow.clairvoyant_schedule typed.Flow.clairvoyant_schedule;
      exact (what ^ ": makespan ratio")
        classic.Flow.score.Online.makespan_ratio
        typed.Flow.score.Online.makespan_ratio)
    [ Flow.Release_zero; Flow.Release_sporadic 3 ]

(* --- properties: pins honored, isolation never co-located ----------------- *)

(* A feasible-by-construction random spec over [n] tasks: two distinct
   pinned tasks (one To_pe, one To_kind) and three distinct classed tasks
   (classes 0, 1, 0), all five tasks distinct, classes <= n_pes. *)
let seeded_spec seed platform n =
  let n_pes = Platform.n_pes platform in
  let n_kinds = Platform.n_kinds platform in
  let distinct_tasks k =
    (* k distinct task ids, seeded but collision-free *)
    let rec grow acc i =
      if List.length acc = k then List.rev acc
      else
        let t = (seed + (i * 7)) mod n in
        grow (if List.mem t acc then acc else t :: acc) (i + 1)
    in
    grow [] 0
  in
  match distinct_tasks 5 with
  | [ a; b; c; d; e ] ->
      {
        Constraints.pins =
          [ (a, Constraints.To_pe (seed mod n_pes));
            (b, Constraints.To_kind (seed mod n_kinds)) ];
        isolation = [ (c, 0); (d, 1); (e, 0) ];
      }
  | _ -> assert false

let check_no_violations what platform spec (s : Schedule.t) =
  let pes = Platform.instances platform in
  (match Constraints.violations spec ~pes ~assignment:(assignment s) with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s: %d constraint violations, first: %s" what
        (List.length vs) (List.hd vs));
  (* Spell the two key properties out explicitly as well. *)
  List.iter
    (fun (task, pin) ->
      let pe = s.Schedule.entries.(task).Schedule.pe in
      match pin with
      | Constraints.To_pe p ->
          Alcotest.(check int) (Printf.sprintf "%s: task %d pin" what task) p pe
      | Constraints.To_kind k ->
          Alcotest.(check int)
            (Printf.sprintf "%s: task %d kind pin" what task)
            k
            pes.(pe).Tats_techlib.Pe.kind.Tats_techlib.Pe.kind_id)
    spec.Constraints.pins;
  let class_pes = Hashtbl.create 8 in
  List.iter
    (fun (task, cls) ->
      Hashtbl.replace class_pes cls
        (s.Schedule.entries.(task).Schedule.pe
        :: Option.value ~default:[] (Hashtbl.find_opt class_pes cls)))
    spec.Constraints.isolation;
  Hashtbl.iter
    (fun cls pes_of_cls ->
      Hashtbl.iter
        (fun cls' pes_of_cls' ->
          if cls < cls' then
            List.iter
              (fun p ->
                if List.mem p pes_of_cls' then
                  Alcotest.failf "%s: classes %d and %d share PE %d" what cls
                    cls' p)
              pes_of_cls)
        class_pes)
    class_pes

let test_pins_and_isolation_respected () =
  for seed = 0 to 9 do
    let platform = if seed mod 2 = 0 then biglittle4 () else mixed6 () in
    let policy = if seed mod 3 = 0 then Policy.Baseline else Policy.Thermal_aware in
    let n_tasks = 10 + (seed mod 4) in
    let graph =
      Generator.generate ~seed:(100 + seed)
        ~name:(Printf.sprintf "prop%d" seed)
        (Generator.scaled_spec ~n_tasks)
    in
    let spec = seeded_spec seed platform n_tasks in
    let o =
      Flow.run_platform ~platform ~constraints:spec ~graph
        ~lib:(Catalog.library_for platform)
        ~policy ()
    in
    check_no_violations
      (Printf.sprintf "flow seed %d on %s" seed (Platform.name platform))
      platform spec o.Flow.schedule
  done

let test_heft_and_online_respect_constraints () =
  let platform = mixed6 () in
  let lib = Catalog.library_for platform in
  let graph = Benchmarks.load 0 in
  let n = Graph.n_tasks graph in
  let spec = seeded_spec 4 platform n in
  let heft_s =
    Heft.run ~constraints:spec ~graph ~lib ~pes:(Platform.instances platform) ()
  in
  check_no_violations "heft mixed6" platform spec heft_s;
  let o =
    Flow.run_online ~platform ~constraints:spec
      ~arrivals:(Flow.Release_sporadic 2) ~graph ~lib
      ~policy:(Online.Mirror Policy.Thermal_aware) ()
  in
  check_no_violations "online mixed6" platform spec
    o.Flow.online.Online.schedule;
  check_no_violations "clairvoyant mixed6" platform spec
    o.Flow.clairvoyant_schedule

(* --- rejection: named, up-front errors ------------------------------------ *)

let expect_invalid what needle f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Constraints.Invalid" what
  | exception Constraints.Invalid msg ->
      if
        not
          (let nl = String.length needle and ml = String.length msg in
           let rec scan i =
             i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1))
           in
           scan 0)
      then Alcotest.failf "%s: message %S lacks %S" what msg needle

let run_constrained spec () =
  let platform = biglittle4 () in
  Flow.run_platform ~platform ~constraints:spec ~graph:(Benchmarks.load 0)
    ~lib:(Catalog.library_for platform)
    ~policy:Policy.Baseline ()

let test_invalid_specs_rejected () =
  expect_invalid "pe pin out of range" "pinned to PE 7" (fun () ->
      run_constrained
        { Constraints.pins = [ (0, Constraints.To_pe 7) ]; isolation = [] }
        ());
  expect_invalid "kind pin absent" "pinned to kind 9" (fun () ->
      run_constrained
        { Constraints.pins = [ (0, Constraints.To_kind 9) ]; isolation = [] }
        ());
  expect_invalid "task pinned twice" "pinned twice" (fun () ->
      run_constrained
        {
          Constraints.pins =
            [ (1, Constraints.To_pe 0); (1, Constraints.To_kind 1) ];
          isolation = [];
        }
        ());
  expect_invalid "too many classes" "5 isolation classes but only 4 PEs"
    (fun () ->
      run_constrained
        {
          Constraints.pins = [];
          isolation = [ (0, 0); (1, 1); (2, 2); (3, 3); (4, 4) ];
        }
        ());
  expect_invalid "conflicting class pins" "both pinned to PE 0" (fun () ->
      run_constrained
        {
          Constraints.pins =
            [ (0, Constraints.To_pe 0); (1, Constraints.To_pe 0) ];
          isolation = [ (0, 0); (1, 1) ];
        }
        ());
  expect_invalid "pinned task out of range" "pinned task 99" (fun () ->
      run_constrained
        { Constraints.pins = [ (99, Constraints.To_pe 0) ]; isolation = [] }
        ())

let test_infeasible_combo_named () =
  (* Statically fine (3 classes, 4 PEs; kind pins claim nothing up front)
     but a runtime dead-end: three mutually isolated tasks all pinned to
     the two big cores. The scheduler must name itself in the error. *)
  let spec =
    {
      Constraints.pins =
        [
          (0, Constraints.To_kind 0);
          (1, Constraints.To_kind 0);
          (2, Constraints.To_kind 0);
        ];
      isolation = [ (0, 0); (1, 1); (2, 2) ];
    }
  in
  match run_constrained spec () with
  | _ -> Alcotest.fail "expected Constraints.Infeasible"
  | exception Constraints.Infeasible msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S names the scheduler" msg)
        true
        (String.length msg >= 10 && String.sub msg 0 10 = "List_sched")

(* --- campaign builtin ----------------------------------------------------- *)

let test_campaign_hetero_builtin () =
  let spec = Option.get (Campaign.builtin "hetero") in
  let cells = Campaign.expand spec in
  Alcotest.(check int) "2 graphs x 2 policies x 4 platforms" 16
    (List.length cells);
  (* Round-trip: the hetero arch and constraint fields survive the
     canonical encoding, so cell ids are reproducible from disk. *)
  (match Campaign.spec_of_string (Campaign.spec_to_string spec) with
  | Ok spec' ->
      Alcotest.(check (list string))
        "cell ids round-trip"
        (List.map Campaign.cell_id cells)
        (List.map Campaign.cell_id (Campaign.expand spec'))
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* The constrained mixed6 point advertises its constraints in the label. *)
  let labels = List.map Campaign.cell_label cells in
  Alcotest.(check bool)
    "constrained label present" true
    (List.exists
       (fun l ->
         let suffix = "mixed6@45C/c1.2" in
         let ll = String.length l and sl = String.length suffix in
         ll >= sl && String.sub l (ll - sl) sl = suffix)
       labels);
  (* Unknown platform names and cosynth constraint combos are rejected at
     expansion, with the offending name spelled out. *)
  let bad_platform =
    {
      spec with
      Campaign.platforms =
        [
          {
            Campaign.arch = Campaign.Hetero "warp9";
            ambient = 45.0;
            power_budget = None;
            pins = [];
            isolation = [];
          };
        ];
    }
  in
  (match Campaign.expand bad_platform with
  | _ -> Alcotest.fail "expected Invalid_argument for unknown platform"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions warp9" msg)
        true
        (let nl = 5 and ml = String.length msg in
         let rec scan i =
           i + nl <= ml && (String.sub msg i nl = "warp9" || scan (i + 1))
         in
         scan 0));
  let bad_cosynth =
    {
      spec with
      Campaign.platforms =
        [
          {
            Campaign.arch = Campaign.Cosynth;
            ambient = 45.0;
            power_budget = None;
            pins = [ (0, Constraints.To_pe 0) ];
            isolation = [];
          };
        ];
    }
  in
  match Campaign.expand bad_cosynth with
  | _ -> Alcotest.fail "expected Invalid_argument for cosynth constraints"
  | exception Invalid_argument _ -> ()

let () =
  Runner.run "hetero"
    [
      ( "differential",
        [
          Alcotest.test_case "degenerate library identical" `Quick
            test_degenerate_library_identical;
          Alcotest.test_case "flow bit-identity (policies x jobs)" `Slow
            test_degenerate_flow_bit_identity;
          Alcotest.test_case "heft bit-identity" `Quick
            test_degenerate_heft_bit_identity;
          Alcotest.test_case "online bit-identity" `Slow
            test_degenerate_online_bit_identity;
        ] );
      ( "properties",
        [
          Alcotest.test_case "pins and isolation respected (seeded)" `Slow
            test_pins_and_isolation_respected;
          Alcotest.test_case "heft and online respect constraints" `Slow
            test_heft_and_online_respect_constraints;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "invalid specs named" `Quick
            test_invalid_specs_rejected;
          Alcotest.test_case "infeasible combo names scheduler" `Quick
            test_infeasible_combo_named;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "hetero builtin" `Quick
            test_campaign_hetero_builtin;
        ] );
    ]
