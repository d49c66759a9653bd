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
   cache.

   The step core itself evaluates thermal costs lazily: [pick] runs the
   fixed point only of candidates whose lower bound
   ([Dc.cost_thermal_floor]) lets them reach the best exact DC. So the
   suite also checks that bound for soundness on every candidate of an
   independent, unpruned greedy scheduler, and that scheduler's entries
   against [List_sched.run], the step core under an [Online]-style
   surcharge, and [run_adaptive]. *)

module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
module Cond = Tats_taskgraph.Cond
module Catalog = Tats_techlib.Catalog
module Platform = Tats_techlib.Platform
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Comm = Tats_techlib.Comm
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Constraints = Tats_sched.Constraints
module Dc = Tats_sched.Dc
module List_sched = Tats_sched.List_sched
module Metricsreg = Tats_util.Metricsreg
module Rng = Tats_util.Rng

(* The bisection of [List_sched.run_adaptive] over fresh, unmemoized
   [schedule weights] calls. *)
let bisect ?(max_multiplier = 400.0) ~base schedule =
  let attempt mult =
    let weights = { Policy.cost_weight = base.Policy.cost_weight *. mult } in
    (schedule weights, weights)
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
      for _ = 1 to 16 do
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

let default_weights graph = Policy.default_weights ~deadline:(Graph.deadline graph)

(* [run_adaptive] as it stood before the memo: the bisection over plain
   [List_sched.run] calls. *)
let reference_adaptive ?base_weights ?max_multiplier ?hotspot
    ?exclusive ?constraints ~graph ~lib ~pes ~policy () =
  let base =
    match base_weights with Some w -> w | None -> default_weights graph
  in
  bisect ?max_multiplier ~base (fun weights ->
      List_sched.run ~weights ?hotspot ?exclusive ?constraints ~graph ~lib ~pes
        ~policy ())

(* An unpruned greedy list scheduler written from the paper's loop rather
   than from [List_sched]'s step core: every step evaluates every (ready
   task, PE) candidate's exact cost, one full [Dc.cost_thermal] inquiry
   per thermal candidate, and keeps the highest DC; candidates are scanned
   in ascending (task, PE) order, so the 1e-12 tie goes to the earlier
   pair. [check ~bounds ~cost] sees each thermal candidate's [bound], then
   the bound of every iterate its fixed point ran through (mapped through
   [iterate]), next to its exact cost. *)
let unpruned ?surcharge ?(check = fun ~bounds:_ ~cost:_ -> ())
    ?(bound = Dc.cost_thermal_floor) ?(iterate = Fun.id) ~hotspot ~graph ~lib
    ~pes ~policy ~weight () =
  let n = Graph.n_tasks graph and n_pes = Array.length pes in
  let sc = Dc.static_criticality lib graph in
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes in
  let engine = Hotspot.inquiry hotspot and comm = Library.comm lib in
  let entries = Array.make n None in
  let pe_free = Array.make n_pes 0.0 and pe_energy = Array.make n_pes 0.0 in
  let committed v = entries.(v) <> None in
  for _ = 1 to n do
    let base = Inquiry.base_response engine ~power:pe_energy in
    let best = ref None in
    for task = 0 to n - 1 do
      let preds = Graph.preds graph task in
      if (not (committed task)) && List.for_all (fun (p, _) -> committed p) preds
      then begin
        let task_type = (Graph.task graph task).Task.task_type in
        for pe = 0 to n_pes - 1 do
          let kind = pes.(pe).Pe.kind.Pe.kind_id in
          let wcet = Library.wcet lib ~task_type ~kind in
          let arrival (p, data) =
            let e = Option.get entries.(p) in
            e.Schedule.finish
            +. Comm.delay_between comm ~src:e.Schedule.pe ~dst:pe ~data
          in
          let start =
            List.fold_left (fun acc p -> Float.max acc (arrival p)) pe_free.(pe) preds
          in
          let finish = start +. wcet in
          let cost =
            match policy with
            | Policy.Baseline -> 0.0
            | Policy.Power_aware Policy.Min_task_power ->
                Dc.cost_task_power lib ~task_type ~kind
            | Policy.Power_aware Policy.Min_pe_average_power ->
                Dc.cost_pe_average_power lib ~pe_energy:pe_energy.(pe)
                  ~task_energy:(Library.energy lib ~task_type ~kind) ~finish
            | Policy.Power_aware Policy.Min_task_energy ->
                Dc.cost_task_energy lib ~task_type ~kind
            | Policy.Thermal_aware ->
                let task_power = Library.wcpc lib ~task_type ~kind in
                let iterates = ref [] in
                let stop b =
                  iterates := iterate b :: !iterates;
                  false
                in
                let cost =
                  Dc.cost_thermal ~stop ~engine ~base ~idle ~finish ~pe ~task_power
                in
                check
                  ~bounds:
                    (bound ~engine ~base ~finish ~pe ~task_power
                    :: List.rev !iterates)
                  ~cost;
                cost
          in
          let cost = match surcharge with None -> cost | Some s -> cost +. s.(pe) in
          let dc = Dc.weigh ~part:(Dc.part ~sc:sc.(task) ~wcet ~start) ~cost ~weight in
          match !best with
          | Some (_, _, _, best_dc) when not (dc > best_dc +. 1e-12) -> ()
          | _ -> best := Some (task, pe, start, dc)
        done
      end
    done;
    let task, pe, start, _ = Option.get !best in
    let task_type = (Graph.task graph task).Task.task_type in
    let kind = pes.(pe).Pe.kind.Pe.kind_id in
    let finish = start +. Library.wcet lib ~task_type ~kind in
    let energy = Library.energy lib ~task_type ~kind in
    entries.(task) <- Some { Schedule.task; pe; start; finish; energy };
    pe_free.(pe) <- Float.max pe_free.(pe) finish;
    pe_energy.(pe) <- pe_energy.(pe) +. energy
  done;
  Schedule.make ~graph ~pes ~entries:(Array.map Option.get entries)

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

(* --- The pruned thermal scan ------------------------------------------- *)

let builtin name =
  let p = Option.get (Catalog.platform_named name) in
  (name, (Catalog.library_for p, Platform.instances p))

let builtins = List.map builtin [ "std4"; "biglittle4"; "mixed6" ]

(* Seeded 20-94-task DAGs and the paper's Bm1-Bm4. *)
let pruning_graphs =
  List.map generated [ 0; 1; 2; 3 ] @ Array.to_list (Benchmarks.all ())

(* An [Online]-style migration surcharge: extra normalized cost on some
   PEs. *)
let surcharge_for pes = Array.mapi (fun pe _ -> 0.04 *. float_of_int (pe mod 3)) pes

(* Every graph x platform x cost weight in {0, default, 400 x default} x
   surcharge (none, or [surcharge_for]). *)
let for_each_input ?(graphs = pruning_graphs) ?(platforms = builtins) f =
  List.iter
    (fun graph ->
      let w = (default_weights graph).Policy.cost_weight in
      List.iter
        (fun (pname, (lib, pes)) ->
          List.iter
            (fun weight ->
              List.iter
                (fun surcharge ->
                  let what =
                    Printf.sprintf "%s/%s/w=%g%s" (Graph.name graph) pname weight
                      (if surcharge = None then "" else "/surcharge")
                  in
                  f what ~graph ~lib ~pes ~weight ~surcharge)
                [ None; Some (surcharge_for pes) ])
            [ 0.0; w; 400.0 *. w ])
        platforms)
    graphs

(* Every thermal candidate the unpruned scheduler meets on the inputs:
   how many have a bound sequence (the [bound] of its seed, then one per
   iterate of its fixed point) that falls somewhere or rises above its
   exact cost, how many there are, how many iterate bounds they carry and
   the smallest [cost - bound] of a seed. *)
let bound_violations ?graphs ?platforms ?iterate bound =
  let violations = ref 0 and checked = ref 0 and iterates = ref 0 in
  let gap = ref Float.infinity in
  let check ~bounds ~cost =
    incr checked;
    iterates := !iterates + List.length bounds - 1;
    gap := Float.min !gap (cost -. List.hd bounds);
    let rec sound prev = function
      | [] -> true
      | b :: rest -> prev <= b && b <= cost && sound b rest
    in
    if not (sound Float.neg_infinity bounds) then incr violations
  in
  for_each_input ?graphs ?platforms (fun _ ~graph ~lib ~pes ~weight ~surcharge ->
      ignore
        (unpruned ?surcharge ~check ~bound ?iterate ~hotspot:(fresh_hotspot pes)
           ~graph ~lib ~pes ~policy:Policy.Thermal_aware ~weight ()
          : Schedule.t));
  (!violations, !checked, !iterates, !gap)

(* Every iterate bounds the cost too, never below the one before it: the
   ground [List_sched.pick]'s refinement stands on. *)
let test_bound_sound () =
  let violations, checked, iterates, gap =
    bound_violations Dc.cost_thermal_floor
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d candidates checked, %d iterate bounds, smallest gap %g"
       checked iterates gap)
    true
    (checked > 100_000 && iterates > checked);
  Alcotest.(check int) "bound sequences not rising to their exact cost" 0
    violations

(* The checker is only as good as its power to fail: a floor raised by
   0.1 (10 °C of average temperature) must be caught. On every candidate
   of [test_bound_sound] leakage lifts the average at least 7 °C above
   the linear seed, so a raise of 0.01 would still be a sound bound. So
   must iterate bounds raised by 1e-6 (0.1 m°C): the last iterate before
   convergence sits within the 1e-6 °C tolerance of the fixed point, 1e-8
   in cost units. *)
let test_unsound_bound_caught () =
  let unsound ~engine ~base ~finish ~pe ~task_power =
    Dc.cost_thermal_floor ~engine ~base ~finish ~pe ~task_power +. 0.1
  in
  let caught ?iterate bound =
    let violations, _, _, _ =
      bound_violations ~graphs:[ Benchmarks.load 0 ]
        ~platforms:[ builtin "std4" ] ?iterate bound
    in
    violations
  in
  let floors = caught unsound in
  Alcotest.(check bool) (Printf.sprintf "floor: %d violations" floors) true
    (floors > 0);
  let iterates = caught ~iterate:(fun b -> b +. 1e-6) Dc.cost_thermal_floor in
  Alcotest.(check bool)
    (Printf.sprintf "iterate: %d violations" iterates)
    true (iterates > 0)

(* [List_sched]'s step core driven directly, as [Online.plan] drives it. *)
let core_schedule ~surcharge ~hotspot ~graph ~lib ~pes ~policy ~weight =
  let st = List_sched.init (List_sched.prepare ~hotspot ~graph ~lib ~pes ~policy ()) in
  let ready = ref (List_sched.Ready.of_list (Graph.sources graph)) in
  let on_ready v = ready := List_sched.Ready.add v !ready in
  while List_sched.scheduled st < Graph.n_tasks graph do
    let choice =
      List_sched.pick ~caller:"test_memo" st
        (List_sched.scan ~surcharge st ~ready:!ready)
        ~weight
    in
    ignore (List_sched.commit ~on_ready st choice : Schedule.entry);
    ready := List_sched.Ready.remove choice.List_sched.task !ready
  done;
  List_sched.finish st

(* The pruned side issues strictly fewer inquiries than it scans
   candidates, where the unpruned one issues one per candidate. *)
let test_unpruned_run () =
  for_each_input (fun what ~graph ~lib ~pes ~weight ~surcharge ->
      List.iter
        (fun policy ->
          let what = what ^ "/" ^ Policy.name policy in
          let hotspot = fresh_hotspot pes in
          let scanned = counter "sched.candidates" in
          let pruned =
            match surcharge with
            | None ->
                List_sched.run ~weights:{ Policy.cost_weight = weight } ~hotspot
                  ~graph ~lib ~pes ~policy ()
            | Some surcharge ->
                core_schedule ~surcharge ~hotspot ~graph ~lib ~pes ~policy ~weight
          in
          let scanned = counter "sched.candidates" - scanned in
          let reference =
            unpruned ?surcharge ~hotspot:(fresh_hotspot pes) ~graph ~lib ~pes
              ~policy ~weight ()
          in
          let w = { Policy.cost_weight = weight } in
          same_result what (pruned, w) (reference, w);
          if policy = Policy.Thermal_aware && surcharge = None then begin
            let inquiries = (Hotspot.inquiry_stats hotspot).Inquiry.inquiries in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %d inquiries < %d candidates" what inquiries
                 scanned)
              true (inquiries < scanned)
          end)
        Policy.all)

let test_unpruned_adaptive () =
  List.iter
    (fun graph ->
      List.iter
        (fun (pname, (lib, pes)) ->
          List.iter
            (fun policy ->
              let what =
                Printf.sprintf "%s/%s/%s" (Graph.name graph) pname
                  (Policy.name policy)
              in
              let max_multiplier = max_multiplier policy in
              let memo =
                List_sched.run_adaptive ~max_multiplier
                  ~hotspot:(fresh_hotspot pes) ~graph ~lib ~pes ~policy ()
              in
              let hotspot = fresh_hotspot pes in
              let reference =
                bisect ~max_multiplier ~base:(default_weights graph) (fun w ->
                    unpruned ~hotspot ~graph ~lib ~pes ~policy
                      ~weight:w.Policy.cost_weight ())
              in
              same_result what memo reference)
            Policy.all)
        builtins)
    pruning_graphs

(* [pick] allocates nothing but its result: no sort, no boxed DC per
   candidate, also on a thermal node once its costs are evaluated. *)
let test_pick_allocation () =
  let graph = generated 2 and _, (lib, pes) = builtin "mixed6" in
  let weight = (default_weights graph).Policy.cost_weight in
  List.iter
    (fun policy ->
      let st =
        List_sched.init
          (List_sched.prepare ~hotspot:(fresh_hotspot pes) ~graph ~lib ~pes
             ~policy ())
      in
      let ready = ref (List_sched.Ready.of_list (Graph.sources graph)) in
      let on_ready v = ready := List_sched.Ready.add v !ready in
      let pick node = List_sched.pick ~caller:"test_memo" st node ~weight in
      while List_sched.Ready.cardinal !ready < 4 do
        let choice = pick (List_sched.scan st ~ready:!ready) in
        ignore (List_sched.commit ~on_ready st choice : Schedule.entry);
        ready := List_sched.Ready.remove choice.List_sched.task !ready
      done;
      let node = List_sched.scan st ~ready:!ready in
      ignore (pick node : List_sched.choice);
      let before = Gc.minor_words () in
      for _ = 1 to 100 do
        ignore (Sys.opaque_identity (pick node) : List_sched.choice)
      done;
      let words = (Gc.minor_words () -. before) /. 100.0 in
      (* The choice record and its boxed start. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: %g words per pick" (Policy.name policy) words)
        true (words <= 8.0))
    Policy.all

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
      ( "pruning",
        [
          Alcotest.test_case "thermal floor <= exact cost" `Quick
            test_bound_sound;
          Alcotest.test_case "an unsound floor is caught" `Quick
            test_unsound_bound_caught;
          Alcotest.test_case "unpruned reference = run / step core" `Quick
            test_unpruned_run;
          Alcotest.test_case "unpruned reference = run_adaptive" `Quick
            test_unpruned_adaptive;
          Alcotest.test_case "pick allocates only its result" `Quick
            test_pick_allocation;
        ] );
    ]
