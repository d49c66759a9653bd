(* Differential suite for the decision-prefix memo of
   [List_sched.run_adaptive].

   The memo claims to change no result: an attempt replays the steps whose
   decision prefix an earlier attempt of the same call already scanned,
   re-picking each winner at its own weight from the stored candidates.
   The reference below is the bisection as it stood before the memo — a
   fresh [List_sched.run] per attempt — so every schedule entry and the
   returned weights must be bit-equal between the two, over generated DAGs,
   every policy, identical and big.LITTLE platforms, with and without
   constraints, and on a conditional graph under [~exclusive]. On the
   thermal policy the memo must issue fewer inquiries for the same
   fixed-point work: it skips only inquiries the reference serves from the
   cache. *)

module Graph = Tats_taskgraph.Graph
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
module Cond = Tats_taskgraph.Cond
module Catalog = Tats_techlib.Catalog
module Platform = Tats_techlib.Platform
module Pe = Tats_techlib.Pe
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Constraints = Tats_sched.Constraints
module List_sched = Tats_sched.List_sched
module Metricsreg = Tats_util.Metricsreg
module Rng = Tats_util.Rng

(* The bisection of [List_sched.run_adaptive] over plain, unmemoized
   [List_sched.run] calls. *)
let reference_adaptive ?base_weights ?(max_multiplier = 400.0)
    ?(search_steps = 16) ?hotspot ?exclusive ?constraints ~graph ~lib ~pes
    ~policy () =
  let base =
    match base_weights with
    | Some w -> w
    | None -> Policy.default_weights ~deadline:(Graph.deadline graph)
  in
  let attempt mult =
    let weights = { Policy.cost_weight = base.Policy.cost_weight *. mult } in
    ( List_sched.run ~weights ?hotspot ?exclusive ?constraints ~graph ~lib ~pes
        ~policy (),
      weights )
  in
  let meets (s, _) = Schedule.meets_deadline s in
  let ceiling = attempt max_multiplier in
  if meets ceiling then ceiling
  else
    let floor = attempt 0.0 in
    if not (meets floor) then floor
    else begin
      let best = ref floor in
      let lo = ref 0.0 and hi = ref max_multiplier in
      for _ = 1 to search_steps do
        let mid = (!lo +. !hi) /. 2.0 in
        let candidate = attempt mid in
        if meets candidate then begin
          best := candidate;
          lo := mid
        end
        else hi := mid
      done;
      !best
    end

let bits = Int64.bits_of_float

let exact what a b =
  if not (Int64.equal (bits a) (bits b)) then
    Alcotest.failf "%s: %h vs %h" what a b

let same_result what (s, (w : Policy.weights)) (s', (w' : Policy.weights)) =
  exact (what ^ ": cost weight") w.Policy.cost_weight w'.Policy.cost_weight;
  Array.iteri
    (fun i (e : Schedule.entry) ->
      let e' = s'.Schedule.entries.(i) in
      let field f = Printf.sprintf "%s: task %d %s" what i f in
      Alcotest.(check int) (field "pe") e.Schedule.pe e'.Schedule.pe;
      exact (field "start") e.Schedule.start e'.Schedule.start;
      exact (field "finish") e.Schedule.finish e'.Schedule.finish;
      exact (field "energy") e.Schedule.energy e'.Schedule.energy)
    s.Schedule.entries

(* Both sides get a fresh hotspot, so neither sees the other's cache. *)
let fresh_hotspot pes =
  Hotspot.create
    (Grid.layout
       (Array.map
          (fun (i : Pe.inst) ->
            Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
          pes))

(* Power heuristics only ever weaken, as in [Flow]. *)
let max_multiplier = function
  | Policy.Power_aware _ -> 1.0
  | Policy.Baseline | Policy.Thermal_aware -> 400.0

let outcome f =
  match f () with
  | r -> Ok r
  | exception Constraints.Infeasible msg -> Error msg

let differential ?exclusive ?constraints what ~graph ~lib ~pes ~policy =
  let max_multiplier = max_multiplier policy in
  let memo =
    outcome (fun () ->
        List_sched.run_adaptive ~max_multiplier ~hotspot:(fresh_hotspot pes)
          ?exclusive ?constraints ~graph ~lib ~pes ~policy ())
  in
  let reference =
    outcome (fun () ->
        reference_adaptive ~max_multiplier ~hotspot:(fresh_hotspot pes)
          ?exclusive ?constraints ~graph ~lib ~pes ~policy ())
  in
  match (memo, reference) with
  | Ok m, Ok r -> same_result what m r
  | Error m, Error r -> Alcotest.(check string) (what ^ ": infeasible") r m
  | Ok _, Error _ | Error _, Ok _ ->
      Alcotest.failf "%s: one side infeasible, the other not" what

let identical4 = (Catalog.platform_library (), Catalog.platform_instances 4)

let biglittle4 =
  let p = Option.get (Catalog.platform_named "biglittle4") in
  (Catalog.library_for p, Platform.instances p)

let platforms = [ ("identical4", identical4); ("biglittle4", biglittle4) ]

let generated seed =
  let n_tasks = 20 + (seed * 37 mod 81) in
  Generator.generate ~seed:(500 + seed)
    ~name:(Printf.sprintf "memo%d" seed)
    (Generator.scaled_spec ~n_tasks)

(* Two pins (one PE, one kind) and three classed tasks in two classes, all
   distinct tasks. *)
let seeded_spec seed ~pes ~n_tasks =
  let n_pes = Array.length pes in
  let n_kinds =
    1 + Array.fold_left (fun m (i : Pe.inst) -> max m i.Pe.kind.Pe.kind_id) 0 pes
  in
  let rng = Rng.create (900 + seed) in
  let rec distinct acc =
    if List.length acc = 5 then acc
    else
      let t = Rng.int rng n_tasks in
      distinct (if List.mem t acc then acc else t :: acc)
  in
  match distinct [] with
  | [ a; b; c; d; e ] ->
      {
        Constraints.pins =
          [ (a, Constraints.To_pe (Rng.int rng n_pes));
            (b, Constraints.To_kind (Rng.int rng n_kinds)) ];
        isolation = [ (c, 0); (d, 1); (e, 0) ];
      }
  | _ -> assert false

let test_generated_dags () =
  for seed = 0 to 19 do
    let graph = generated seed in
    List.iter
      (fun (pname, (lib, pes)) ->
        List.iter
          (fun policy ->
            let what c =
              Printf.sprintf "%s/%s/%s/%s" (Graph.name graph) pname
                (Policy.name policy) c
            in
            differential (what "free") ~graph ~lib ~pes ~policy;
            let constraints =
              seeded_spec seed ~pes ~n_tasks:(Graph.n_tasks graph)
            in
            differential ~constraints (what "constrained") ~graph ~lib ~pes
              ~policy)
          Policy.all)
      platforms
  done

let test_conditional_exclusive () =
  let graph = generated 3 in
  let cond =
    Cond.annotate_random (Rng.create 17) ~fork_probability:0.6 graph
  in
  Alcotest.(check bool) "graph has conditions" true (Cond.variables cond <> []);
  let lib, pes = identical4 in
  List.iter
    (fun policy ->
      differential
        ~exclusive:(Cond.mutually_exclusive cond)
        ("conditional/" ^ Policy.name policy)
        ~graph ~lib ~pes ~policy)
    Policy.all

let counter name = Metricsreg.counter_value (Metricsreg.counter name)

(* Bm1, thermal policy, platform architecture: the memo's attempts issue
   fewer inquiries than the reference's and run exactly the same fixed-point
   iterations, so every skipped inquiry was a cache hit there. The
   scheduler's own step, candidate and attempt counts keep their meaning. *)
let test_bm1_thermal_stats () =
  let graph = Benchmarks.load 0 in
  let lib, pes = identical4 in
  let policy = Policy.Thermal_aware in
  let measure f =
    let hotspot = fresh_hotspot pes in
    let names =
      [ "sched.steps"; "sched.candidates"; "sched.adaptive_attempts";
        "sched.replayed_steps" ]
    in
    let before = List.map counter names in
    let result = f ~hotspot in
    let deltas = List.map2 (fun n b -> counter n - b) names before in
    (result, Hotspot.inquiry_stats hotspot, deltas)
  in
  let memo, ms, md =
    measure (fun ~hotspot ->
        List_sched.run_adaptive ~hotspot ~graph ~lib ~pes ~policy ())
  in
  let reference, rs, rd =
    measure (fun ~hotspot -> reference_adaptive ~hotspot ~graph ~lib ~pes ~policy ())
  in
  same_result "Bm1/thermal" memo reference;
  Alcotest.(check bool)
    (Printf.sprintf "fewer inquiries (%d < %d)" ms.Inquiry.inquiries
       rs.Inquiry.inquiries)
    true
    (ms.Inquiry.inquiries < rs.Inquiry.inquiries);
  Alcotest.(check int) "equal fp_iterations" rs.Inquiry.fp_iterations
    ms.Inquiry.fp_iterations;
  (match (md, rd) with
  | [ steps; cands; attempts; replayed ], [ steps'; cands'; _; replayed' ] ->
      Alcotest.(check int) "sched.steps" steps' steps;
      Alcotest.(check int) "sched.candidates" cands' cands;
      Alcotest.(check bool) "bisection ran" true (attempts > 2);
      Alcotest.(check int) "reference replays nothing" 0 replayed';
      Alcotest.(check bool) "memo replays steps" true (replayed > 0)
  | _ -> assert false)

let () =
  Alcotest.run "memo"
    [
      ( "differential",
        [
          Alcotest.test_case "generated DAGs x policies x platforms" `Quick
            test_generated_dags;
          Alcotest.test_case "conditional graph, exclusive" `Quick
            test_conditional_exclusive;
        ] );
      ( "inquiries",
        [ Alcotest.test_case "Bm1 thermal: fewer inquiries, same fixed points"
            `Quick test_bm1_thermal_stats ] );
    ]
