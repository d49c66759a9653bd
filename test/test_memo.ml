(* Differential suite for the decision-prefix memo of
   [List_sched.run_adaptive].

   The memo claims to change no result: an attempt replays the steps whose
   decision prefix an earlier attempt of the same call already scanned,
   re-picking each winner at its own weight from the stored candidates.
   The reference below is the bisection as it stood before the memo — a
   fresh [List_sched.run] per attempt — so every schedule entry and the
   returned weights must be bit-equal between the two, over generated DAGs,
   every policy, identical and big.LITTLE platforms, with and without
   constraints. On the
   thermal policy the memo must issue fewer inquiries for the same
   fixed-point work: it skips only inquiries the reference serves from the
   cache.

   The step core itself evaluates thermal costs lazily: [pick] runs the
   fixed point only of candidates whose lower bound
   ([Dc.cost_thermal_floor]) lets them reach the best exact DC, from the
   engine's per-step tables. So the suite also checks that bound for
   soundness on every candidate of an independent, unpruned greedy
   scheduler, and that scheduler's entries against [List_sched.run], the
   step core under an [Online]-style surcharge, and [run_adaptive]. That
   scheduler's thermal costs come from an oracle that touches neither
   the step tables nor the inquiry cache; every exact cost a pick uses is
   checked against it, and the tables' sharing by the fixed-point steps
   each pick runs. *)

module Graph = Tats_taskgraph.Graph
module Task = Tats_taskgraph.Task
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
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
module Steady = Tats_thermal.Steady

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
let reference_adaptive ?base_weights ?max_multiplier ?hotspot ?constraints
    ~graph ~lib ~pes ~policy () =
  let base =
    match base_weights with Some w -> w | None -> default_weights graph
  in
  bisect ?max_multiplier ~base (fun weights ->
      List_sched.run ~weights ?hotspot ?constraints ~graph ~lib ~pes ~policy ())

(* --- A thermal cost oracle --------------------------------------------- *)

(* What the oracle reads of an engine: its influence columns and package,
   never its step tables or cache. *)
type oracle = { cols : float array array; package : Tats_thermal.Package.t }

let oracle engine =
  {
    cols = Array.init (Inquiry.n_blocks engine) (Inquiry.influence_column engine);
    package = Inquiry.package engine;
  }

type trajectory = {
  bounds : float array;
      (* the cost bound of the seed, then of every unconverged iterate: one
         per step the fixed point runs *)
  cost : float;
}

(* ambient + sum_j p_j col_j, block by block in ascending [j], zero powers
   skipped: the engine's influence solve, written out here. *)
let influence_sum o ~ambient power dst =
  Array.fill dst 0 (Array.length dst) ambient;
  Array.iteri
    (fun j pj ->
      if pj <> 0.0 then
        for i = 0 to Array.length dst - 1 do
          dst.(i) <- dst.(i) +. (pj *. o.cols.(j).(i))
        done)
    power

(* A thermal candidate's cost by a cache-free [Steady.fixed_point] from the
   linear seed the engine's step inquiry starts from: the same per-block
   expression [ambient + response / horizon + task_power * col(pe)], the
   response summed over PEs in ascending order. *)
let thermal_cost o ~pe_energy ~idle ~finish ~pe ~task_power =
  let n = Array.length o.cols and ambient = o.package.Tats_thermal.Package.ambient in
  let horizon = Float.max finish 1e-9 in
  let response = Array.make n 0.0 in
  influence_sum o ~ambient:0.0 pe_energy response;
  let seed =
    Array.init n (fun i ->
        ambient +. (response.(i) /. horizon) +. (task_power *. o.cols.(pe).(i)))
  in
  let dynamic =
    Array.init n (fun i ->
        (pe_energy.(i) /. horizon) +. if i = pe then task_power else 0.0)
  in
  let cost temps =
    Dc.cost_temperature ~ambient ~avg_temp:(Tats_util.Stats.mean temps)
  in
  let bounds = ref [ cost seed ] in
  let result =
    Steady.fixed_point ~init:(Steady.seed seed)
      ~stop:(fun temps ->
        bounds := cost temps :: !bounds;
        false)
      ~package:o.package ~solve:(influence_sum o ~ambient) ~dynamic ~idle ()
  in
  { bounds = Array.of_list (List.rev !bounds); cost = cost result.Steady.temps }

(* An unpruned greedy list scheduler written from the paper's loop rather
   than from [List_sched]'s step core: every step evaluates every (ready
   task, PE) candidate's exact cost, one full oracle fixed point per
   thermal candidate ([thermal_cost]), and keeps the highest DC;
   candidates are scanned in ascending (task, PE) order, so the 1e-12 tie
   goes to the earlier pair. [check ~lift ~floor ~iterates ~cost] sees
   each thermal candidate's [bound], at the step's leakage lift (of the
   largest horizon among the step's candidates, the rule [scan] follows),
   then the bound of every iterate its fixed point ran through (mapped
   through [iterate]), next to its exact cost. *)
let unpruned ?surcharge ?(check = fun ~lift:_ ~floor:_ ~iterates:_ ~cost:_ -> ())
    ?(bound = Dc.cost_thermal_floor) ?(iterate = Fun.id) ~hotspot ~graph ~lib
    ~pes ~policy ~weight () =
  let n = Graph.n_tasks graph and n_pes = Array.length pes in
  let sc = Dc.static_criticality lib graph in
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes in
  let engine = Hotspot.inquiry hotspot and comm = Library.comm lib in
  let o = oracle engine in
  let entries = Array.make n None in
  let pe_free = Array.make n_pes 0.0 and pe_energy = Array.make n_pes 0.0 in
  let committed v = entries.(v) <> None in
  for _ = 1 to n do
    let base = Inquiry.base_response engine ~power:pe_energy in
    (* Every candidate's (task, PE, start, wcet), in scan order. *)
    let candidates = ref [] in
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
          candidates := (task, pe, start, wcet) :: !candidates
        done
      end
    done;
    let candidates = List.rev !candidates in
    let lift =
      match policy with
      | Policy.Thermal_aware ->
          let widest =
            List.fold_left
              (fun acc (_, _, start, wcet) -> Float.max acc (Float.max (start +. wcet) 1e-9))
              0.0 candidates
          in
          Inquiry.leakage_lift engine ~base ~idle ~horizon:widest
      | _ -> 0.0
    in
    let best = ref None in
    List.iter
      (fun (task, pe, start, wcet) ->
        let task_type = (Graph.task graph task).Task.task_type in
        let kind = pes.(pe).Pe.kind.Pe.kind_id in
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
              let t = thermal_cost o ~pe_energy ~idle ~finish ~pe ~task_power in
              check ~lift
                ~floor:(bound ~engine ~base ~lift ~finish ~pe ~task_power)
                ~iterates:(List.map iterate (Array.to_list t.bounds))
                ~cost:t.cost;
              t.cost
        in
        let cost = match surcharge with None -> cost | Some s -> cost +. s.(pe) in
        let dc = Dc.weigh ~part:(Dc.part ~sc:sc.(task) ~wcet ~start) ~cost ~weight in
        match !best with
        | Some (_, _, _, best_dc) when not (dc > best_dc +. 1e-12) -> ()
        | _ -> best := Some (task, pe, start, dc))
      candidates;
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

let differential ?constraints what ~graph ~lib ~pes ~policy =
  let max_multiplier = max_multiplier policy in
  let memo =
    outcome (fun () ->
        List_sched.run_adaptive ~max_multiplier ~hotspot:(fresh_hotspot pes)
          ?constraints ~graph ~lib ~pes ~policy ())
  in
  let reference =
    outcome (fun () ->
        reference_adaptive ~max_multiplier ~hotspot:(fresh_hotspot pes)
          ?constraints ~graph ~lib ~pes ~policy ())
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

(* Bm1-Bm4, thermal [run_adaptive] on std4: every [Inquiry.stats] count
   and every [inquiry.*] and [sched.*] registry counter, pinned. The
   values are those of the per-inquiry keyed cache the step tables
   replaced: counters keep their meaning, batched per pick (a zero-step
   answer is still an inquiry, a delta eval and a hit, and adds 1 + its
   iterate's steps of dense solves). Bm3 differs from that cache only
   where it answered 3 inquiries from a 1 nW-quantized neighbour's
   entry: its values here are that cache's with keys compared bit for
   bit, as a table's are. [wall_time] is not pinned: it now covers the
   fixed points run, read off no clock for a zero-step answer. The
   leakage-lifted floor prunes more candidates before their fixed point:
   the [sched.*] counts are unchanged, and no [Inquiry.stats] count may
   exceed its value under the unlifted floor. *)
let test_std4_counters_pinned () =
  let p = Option.get (Catalog.platform_named "std4") in
  let lib = Catalog.library_for p and pes = Platform.instances p in
  let names =
    [ "inquiry.inquiries"; "inquiry.cache_hits"; "inquiry.fp_iterations";
      "inquiry.factored_solves"; "inquiry.dense_solves"; "inquiry.delta_evals";
      "sched.steps"; "sched.candidates"; "sched.adaptive_attempts";
      "sched.replayed_steps" ]
  in
  (* inquiries, hits, fp_iterations, factored, dense, delta evals; then
     the registry's steps, candidates, attempts and replayed steps *)
  let expected =
    [
      ([ 1776; 535; 21538; 4; 36830; 1776 ], [ 342; 7232; 18; 213 ]);
      ([ 5598; 1646; 54077; 4; 91229; 5598 ], [ 630; 18872; 18; 301 ]);
      ([ 9744; 3523; 79372; 4; 143501; 9744 ], [ 702; 26236; 18; 298 ]);
      ([ 17072; 6684; 123752; 4; 240237; 17072 ], [ 918; 37896; 18; 332 ]);
    ]
  in
  (* The same counts under the seed floor without its leakage lift: the
     lift only removes work. *)
  let unlifted =
    [
      [ 2646; 828; 22467; 4; 39325; 2646 ];
      [ 8113; 2499; 56447; 4; 98993; 8113 ];
      [ 13892; 5237; 83362; 4; 157620; 13892 ];
      [ 22215; 8892; 128419; 4; 262039; 22215 ];
    ]
  in
  List.iteri
    (fun b ((stats, sched), unlifted) ->
      let graph = Benchmarks.load b in
      let hotspot = fresh_hotspot pes in
      let before = List.map counter names in
      ignore
        (List_sched.run_adaptive ~hotspot ~graph ~lib ~pes
           ~policy:Policy.Thermal_aware ()
          : Schedule.t * Policy.weights);
      let deltas = List.map2 (fun n b -> counter n - b) names before in
      let s = Hotspot.inquiry_stats hotspot in
      let what = Printf.sprintf "Bm%d/std4" (b + 1) in
      Alcotest.(check (list int)) (what ^ ": Inquiry.stats") stats
        [ s.Inquiry.inquiries; s.Inquiry.cache_hits; s.Inquiry.fp_iterations;
          s.Inquiry.factored_solves; s.Inquiry.dense_solves;
          s.Inquiry.delta_evals ];
      Alcotest.(check (list int)) (what ^ ": registry") (stats @ sched) deltas;
      List.iter2
        (fun now before ->
          if now > before then
            Alcotest.failf "%s: %d above the unlifted floor's %d" what now before)
        stats unlifted)
    (List.combine expected unlifted)

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

(* Every thermal candidate the unpruned scheduler meets on the inputs,
   against three properties: its floor is at most its exact cost; its
   iterate bounds never fall and stay at most the cost; and the running
   maximum of the floor and the iterate bounds, which [List_sched.pick]
   stores, never falls. Returns how many candidates break one, how many
   there are, how many carry a positive lift, how many iterate bounds
   they carry, the smallest [cost - floor] and the smallest ratio of that
   gap to the lift (in cost units). *)
type soundness = {
  violations : int;
  checked : int;
  lifted : int;
  iterates : int;
  gap : float;
  gap_per_lift : float;
}

let bound_violations ?graphs ?platforms ?iterate bound =
  let r =
    ref
      { violations = 0; checked = 0; lifted = 0; iterates = 0;
        gap = Float.infinity; gap_per_lift = Float.infinity }
  in
  let check ~lift ~floor ~iterates ~cost =
    let rec climbs prev = function
      | [] -> true
      | b :: rest -> prev <= b && b <= cost && climbs b rest
    in
    let running = List.rev (List.fold_left (fun acc b ->
        Float.max b (List.hd acc) :: acc) [ floor ] iterates) in
    let sound =
      floor <= cost && climbs Float.neg_infinity iterates
      && climbs Float.neg_infinity running
    in
    let gap = cost -. floor and lift_cost = lift /. 100.0 in
    let c = !r in
    r :=
      {
        violations = (c.violations + if sound then 0 else 1);
        checked = c.checked + 1;
        lifted = (c.lifted + if lift > 0.0 then 1 else 0);
        iterates = c.iterates + List.length iterates;
        gap = Float.min c.gap gap;
        gap_per_lift =
          (if lift > 0.0 then Float.min c.gap_per_lift (gap /. lift_cost)
           else c.gap_per_lift);
      }
  in
  for_each_input ?graphs ?platforms (fun _ ~graph ~lib ~pes ~weight ~surcharge ->
      ignore
        (unpruned ?surcharge ~check ~bound ?iterate ~hotspot:(fresh_hotspot pes)
           ~graph ~lib ~pes ~policy:Policy.Thermal_aware ~weight ()
          : Schedule.t));
  !r

(* Every iterate bounds the cost too, never below the one before it: the
   ground [List_sched.pick]'s refinement stands on. *)
let test_bound_sound () =
  let r = bound_violations Dc.cost_thermal_floor in
  Alcotest.(check bool)
    (Printf.sprintf
       "%d candidates checked (%d lifted), %d iterate bounds, smallest gap %g, \
        smallest gap %.3g x the lift"
       r.checked r.lifted r.iterates r.gap r.gap_per_lift)
    true
    (r.checked > 100_000 && r.iterates > r.checked && r.lifted > r.checked / 2);
  Alcotest.(check int) "floors and bound sequences not rising to their exact cost" 0
    r.violations

(* The checker is only as good as its power to fail: a floor raised by
   0.1 (10 °C of average temperature) must be caught, and so must a floor
   whose leakage lift is doubled: the lift is a real share of the gap
   between the seed and the cost, not a rounding-sized one. So must
   iterate bounds raised by 1e-6 (0.1 m°C): the last iterate before
   convergence sits within the 1e-6 °C tolerance of the fixed point, 1e-8
   in cost units. *)
let test_unsound_bound_caught () =
  let raised ~engine ~base ~lift ~finish ~pe ~task_power =
    Dc.cost_thermal_floor ~engine ~base ~lift ~finish ~pe ~task_power +. 0.1
  in
  let doubled ~engine ~base ~lift ~finish ~pe ~task_power =
    Dc.cost_thermal_floor ~engine ~base ~lift:(2.0 *. lift) ~finish ~pe ~task_power
  in
  let caught ?iterate bound =
    (bound_violations ~graphs:[ Benchmarks.load 0 ]
       ~platforms:[ builtin "std4" ] ?iterate bound)
      .violations
  in
  let floors = caught raised in
  Alcotest.(check bool) (Printf.sprintf "floor: %d violations" floors) true
    (floors > 0);
  let lifts = caught doubled in
  Alcotest.(check bool) (Printf.sprintf "doubled lift: %d violations" lifts) true
    (lifts > 0);
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

(* --- Reuse across steps ----------------------------------------------- *)

module Inspect = List_sched.Inspect
module Online = Tats_sched.Online

(* A test-local scan from scratch of the state an observed node was built
   from: in scan order, every (ready task, PE) pair that [Constraints]
   admits under the state's claims now, its earliest start from the
   committed entries (a PE is free from its latest finish), the node's
   floor, its
   part, and its exact cost: for the thermal policy the oracle's
   ([thermal_cost]) on [engine]'s columns. Returns (pair, start, part,
   cost) per pair. *)
let local_scan ~lib ~pes ~policy ~engine st (v : Inspect.view) =
  let graph = Inspect.graph st in
  let n_pes = Array.length pes and comm = Library.comm lib in
  let avail = Array.make n_pes 0.0 in
  for t = 0 to Graph.n_tasks graph - 1 do
    match Inspect.entry st t with
    | Some e -> avail.(e.Schedule.pe) <- Float.max avail.(e.Schedule.pe) e.Schedule.finish
    | None -> ()
  done;
  let pe_energy = Inspect.pe_energy st in
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes in
  let out = ref [] in
  List_sched.Ready.iter
    (fun task ->
      let task_type = (Graph.task graph task).Task.task_type in
      for pe = 0 to n_pes - 1 do
        if Inspect.admissible st ~task ~pe then begin
          let kind = pes.(pe).Pe.kind.Pe.kind_id in
          let wcet = Library.wcet lib ~task_type ~kind in
          let arrival =
            List.fold_left
              (fun acc (p, data) ->
                let e = Option.get (Inspect.entry st p) in
                Float.max acc
                  (e.Schedule.finish
                  +. Comm.delay_between comm ~src:e.Schedule.pe ~dst:pe ~data))
              0.0 (Graph.preds graph task)
          in
          let start = Float.max arrival avail.(pe) in
          let start =
            match v.Inspect.v_floor with
            | None -> start
            | Some f -> Float.max start (f task)
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
                (thermal_cost (Option.get engine) ~pe_energy ~idle ~finish ~pe
                   ~task_power:(Library.wcpc lib ~task_type ~kind))
                  .cost
          in
          let cost =
            match v.Inspect.v_surcharge with
            | None -> cost
            | Some s -> cost +. s.(pe)
          in
          let part =
            Dc.part ~sc:(Inspect.criticality st task) ~wcet ~start
          in
          out := ((task * n_pes) + pe, start, part, cost) :: !out
        end
      done)
    v.Inspect.v_ready;
  Array.of_list (List.rev !out)

type observed = {
  mutable nodes : int;
  mutable thermal_bounds : int;
  mutable picks : int;
  (* The unpruned pick of the last node, to meet in the next commit, and
     the state and commit count it was made at. *)
  mutable pending : (List_sched.state * int * (int * int * float)) option;
}

(* Run [f] with an observer that checks every node against [local_scan]:
   the pairs, starts and parts, and every non-thermal cost, are [%h]-equal;
   every thermal bound is at most the exact cost. With [weight], it also
   picks the unpruned winner of each node from the exact costs (the
   sequential 1e-12 tie-break, in scan order) and checks that the state's
   next commit is that (task, PE), at that start. Returns [f]'s result and
   what it saw. *)
let observing ?weight what ~lib ~pes ~policy f =
  let engine =
    match policy with
    | Policy.Thermal_aware -> Some (oracle (Hotspot.inquiry (fresh_hotspot pes)))
    | _ -> None
  in
  let o = { nodes = 0; thermal_bounds = 0; picks = 0; pending = None } in
  let n_pes = Array.length pes in
  let committed task pe start (e : Schedule.entry) =
    let step = Printf.sprintf "%s: pick %d" what o.picks in
    if (task, pe) <> (e.Schedule.task, e.Schedule.pe) then
      Alcotest.failf "%s: picked (%d, %d), committed (%d, %d)" step task pe
        e.Schedule.task e.Schedule.pe;
    exact (step ^ ": start") start e.Schedule.start;
    o.picks <- o.picks + 1
  in
  let settle st =
    match o.pending with
    | Some (st', count, (task, pe, start))
      when st' == st && List_sched.scheduled st = count + 1 -> (
        match Inspect.entry st task with
        | Some e -> committed task pe start e
        | None ->
            Alcotest.failf "%s: pick %d: task %d (PE %d, start %h) not committed"
              what o.picks task pe start)
    | _ -> ()
  in
  let observe st (v : Inspect.view) =
    settle st;
    let at = Printf.sprintf "%s: node %d" what o.nodes in
    let local = local_scan ~lib ~pes ~policy ~engine st v in
    let n = Array.length local in
    if n <> Array.length v.Inspect.v_pairs then
      Alcotest.failf "%s: %d candidates, %d from scratch" at
        (Array.length v.Inspect.v_pairs) n;
    Array.iteri
      (fun i (pair, start, part, cost) ->
        (* Messages are built only on a failure. *)
        let field f =
          Printf.sprintf "%s: pair %d (%d, %d) %s" at i (pair / n_pes)
            (pair mod n_pes) f
        in
        let same f a b = if not (Int64.equal (bits a) (bits b)) then exact (field f) a b in
        if pair <> v.Inspect.v_pairs.(i) then
          Alcotest.failf "%s: %d" (field "pair") v.Inspect.v_pairs.(i);
        same "start" start v.Inspect.v_starts.(i);
        same "part" part v.Inspect.v_parts.(i);
        match policy with
        | Policy.Thermal_aware ->
            o.thermal_bounds <- o.thermal_bounds + 1;
            if not (v.Inspect.v_bounds.(i) <= cost) then
              Alcotest.failf "%s: floor %h above the exact cost %h"
                (field "bound") v.Inspect.v_bounds.(i) cost
        | _ -> same "cost" cost v.Inspect.v_bounds.(i))
      local;
    o.nodes <- o.nodes + 1;
    o.pending <-
      Option.map
        (fun weight ->
          let best = ref (-1) and best_dc = ref 0.0 in
          Array.iteri
            (fun i (_, _, part, cost) ->
              let dc = Dc.weigh ~part ~cost ~weight in
              if !best < 0 || dc > !best_dc +. 1e-12 then begin
                best := i;
                best_dc := dc
              end)
            local;
          let pair, start, _, _ = local.(!best) in
          (st, List_sched.scheduled st, (pair / n_pes, pair mod n_pes, start)))
        weight
  in
  Inspect.set_observer (Some observe);
  let result =
    Fun.protect ~finally:(fun () -> Inspect.set_observer None) f
  in
  (result, o)

(* The last pick, met in the finished schedule: [entry task] is the
   committed (PE, start) of [task]. *)
let last_pick what o entry =
  match o.pending with
  | None -> ()
  | Some (_, _, (task, pe, start)) ->
      let pe', start' = entry task in
      if pe <> pe' then Alcotest.failf "%s: last pick on PE %d, not %d" what pe' pe;
      exact (what ^ ": last pick's start") start start';
      o.picks <- o.picks + 1

let in_schedule (s : Schedule.t) task =
  let e = s.Schedule.entries.(task) in
  (e.Schedule.pe, e.Schedule.start)

let reuse_graphs = List.map generated [ 1; 4; 7 ]

(* Isolation crowded enough that a claim can change admissibility away
   from the claimed PE: [n_pes - 1] classes of three tasks each, so the
   unclaimed PEs run short of the classes still unplaced. *)
let crowded_spec seed ~pes ~n_tasks =
  let n_classes = Array.length pes - 1 in
  let rng = Rng.create (700 + seed) in
  let rec distinct acc =
    if List.length acc = 3 * n_classes then acc
    else
      let t = Rng.int rng n_tasks in
      distinct (if List.mem t acc then acc else t :: acc)
  in
  {
    Constraints.pins = [];
    isolation = List.mapi (fun i t -> (t, i mod n_classes)) (distinct []);
  }

(* Every step of [run], [run_adaptive] (fresh and replayed nodes) and
   [Online]'s plan (sporadic releases as floors; a reactive surcharge), on
   seeded DAGs x every policy x three platforms, with and without pins and
   isolation where the caller takes them. *)
let test_reuse_is_a_fresh_scan () =
  let nodes = ref 0 and bounds = ref 0 and picks = ref 0 in
  let tally (o : observed) =
    nodes := !nodes + o.nodes;
    bounds := !bounds + o.thermal_bounds;
    picks := !picks + o.picks
  in
  List.iteri
    (fun gi graph ->
      List.iter
        (fun (pname, (lib, pes)) ->
          List.iter
            (fun policy ->
              let what c =
                Printf.sprintf "%s/%s/%s/%s" (Graph.name graph) pname
                  (Policy.name policy) c
              in
              let weight = (default_weights graph).Policy.cost_weight in
              let hotspot () = fresh_hotspot pes in
              let constraints =
                crowded_spec gi ~pes ~n_tasks:(Graph.n_tasks graph)
              in
              (* run: every pick, and the whole schedule against the
                 unpruned reference. *)
              let s, o =
                observing ~weight (what "run") ~lib ~pes ~policy (fun () ->
                    List_sched.run ~hotspot:(hotspot ()) ~graph ~lib ~pes ~policy ())
              in
              last_pick (what "run") o (in_schedule s);
              tally o;
              let w = { Policy.cost_weight = weight } in
              same_result (what "run")
                (s, w)
                ( unpruned ~hotspot:(hotspot ()) ~graph ~lib ~pes ~policy ~weight (),
                  w );
              (match
                 outcome (fun () ->
                     observing ~weight (what "run/constrained") ~lib ~pes
                       ~policy (fun () ->
                         List_sched.run ~hotspot:(hotspot ()) ~constraints ~graph
                           ~lib ~pes ~policy ()))
               with
              | Ok (s, o) ->
                  last_pick (what "run/constrained") o (in_schedule s);
                  tally o
              | Error _ -> ());
              (* run_adaptive: fresh and replayed nodes; the result against
                 the bisection over the unpruned reference. *)
              let max_multiplier = max_multiplier policy in
              let r, o =
                observing (what "adaptive") ~lib ~pes ~policy (fun () ->
                    List_sched.run_adaptive ~max_multiplier ~hotspot:(hotspot ())
                      ~graph ~lib ~pes ~policy ())
              in
              tally o;
              same_result (what "adaptive") r
                (bisect ~max_multiplier ~base:(default_weights graph) (fun w ->
                     unpruned ~hotspot:(hotspot ()) ~graph ~lib ~pes ~policy
                       ~weight:w.Policy.cost_weight ()));
              (match
                 outcome (fun () ->
                     observing (what "adaptive/constrained") ~lib ~pes
                       ~policy (fun () ->
                         List_sched.run_adaptive ~max_multiplier
                           ~hotspot:(hotspot ()) ~constraints ~graph ~lib ~pes
                           ~policy ()))
               with
              | Ok (_, o) -> tally o
              | Error _ -> ());
              (* Online: release floors over several events. *)
              let arrivals = Online.sporadic ~seed:(40 + gi) graph in
              let r, o =
                observing ~weight (what "online") ~lib ~pes ~policy
                  (fun () ->
                    Online.run ~hotspot:(hotspot ()) ~arrivals ~graph ~lib ~pes
                      ~policy:(Online.Mirror policy) ())
              in
              last_pick (what "online") o (in_schedule r.Online.schedule);
              tally o;
              (* Online, reactive: a surcharge on hot PEs, and deferrals
                 (the step after one commits nothing). *)
              if policy = Policy.Thermal_aware then begin
                let reactive = Online.Reactive { Online.default_reactive with Online.trigger = 50.0 } in
                let r, o =
                  observing ~weight (what "online/reactive") ~lib ~pes ~policy
                    (fun () ->
                      Online.run ~hotspot:(hotspot ()) ~arrivals ~graph ~lib ~pes
                        ~policy:reactive ())
                in
                if r.Online.stats.Online.deferrals = 0 then
                  last_pick (what "online/reactive") o (in_schedule r.Online.schedule);
                tally o
              end)
            Policy.all)
        builtins)
    reuse_graphs;
  Alcotest.(check bool)
    (Printf.sprintf "%d nodes, %d thermal bounds, %d picks checked" !nodes
       !bounds !picks)
    true
    (!nodes > 10_000 && !bounds > 10_000 && !picks > 1_000)

(* Every exact thermal cost a pick uses is [%h]-equal to the oracle's, on
   seeded DAGs x std4/biglittle4/mixed6, in [run] and [run_adaptive]
   (fresh and replayed nodes). In [run], where every step has a table of
   its own, the fixed-point steps each pick runs are exactly those of one
   fixed point per distinct (PE, horizon, task power) of the step, run as
   deep as its deepest candidate needed: converged if one was evaluated,
   else the oracle iterate its floor stopped at. *)
let test_costs_match_oracle () =
  let costs = ref 0 and shared = ref 0 in
  List.iter
    (fun graph ->
      List.iter
        (fun (pname, (lib, pes)) ->
          let n_pes = Array.length pes in
          let o = oracle (Hotspot.inquiry (fresh_hotspot pes)) in
          let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes in
          let audit ~depth what f =
            let hotspot = fresh_hotspot pes in
            let fp () = (Hotspot.inquiry_stats hotspot).Inquiry.fp_iterations in
            let pending = ref None in
            let settle () =
              match !pending with
              | None -> ()
              | Some (at, (v : Inspect.view), keys, trajs, fp0) ->
                  pending := None;
                  let n = Array.length trajs in
                  let reached = Hashtbl.create 16 and touched = Hashtbl.create 16 in
                  for i = 0 to n - 1 do
                    let t = trajs.(i) and c = v.Inspect.v_costs.(i) in
                    let f = v.Inspect.v_floors.(i) in
                    let d =
                      if not (Float.is_nan c) then begin
                        incr costs;
                        exact (Printf.sprintf "%s: candidate %d cost" at i) t.cost c;
                        Array.length t.bounds
                      end
                      else if Int64.equal (bits f) (bits v.Inspect.v_bounds.(i)) then 0
                      else
                        match
                          Array.find_index (fun b -> Int64.equal (bits b) (bits f)) t.bounds
                        with
                        | Some d -> d
                        | None ->
                            Alcotest.failf "%s: candidate %d floor %h off its trajectory"
                              at i f
                    in
                    let k = keys.(i) in
                    if d > 0 || not (Float.is_nan c) then
                      Hashtbl.replace touched k
                        (1 + Option.value ~default:0 (Hashtbl.find_opt touched k));
                    Hashtbl.replace reached k
                      (max d (Option.value ~default:0 (Hashtbl.find_opt reached k)))
                  done;
                  Hashtbl.iter (fun _ m -> if m > 1 then incr shared) touched;
                  if depth then
                    Alcotest.(check int) (at ^ ": fixed-point steps of its pick")
                      (Hashtbl.fold (fun _ d acc -> acc + d) reached 0)
                      (fp () - fp0)
            in
            let nodes = ref 0 in
            let observe st (v : Inspect.view) =
              settle ();
              let graph = Inspect.graph st and pe_energy = Inspect.pe_energy st in
              let n = Array.length v.Inspect.v_pairs in
              let keys = Array.make n (0, 0L, 0L) in
              let trajs =
                Array.init n (fun i ->
                    let pair = v.Inspect.v_pairs.(i) in
                    let task = pair / n_pes and pe = pair mod n_pes in
                    let task_type = (Graph.task graph task).Task.task_type in
                    let kind = pes.(pe).Pe.kind.Pe.kind_id in
                    let finish =
                      v.Inspect.v_starts.(i) +. Library.wcet lib ~task_type ~kind
                    in
                    let task_power = Library.wcpc lib ~task_type ~kind in
                    keys.(i) <- (pe, bits (Float.max finish 1e-9), bits task_power);
                    thermal_cost o ~pe_energy ~idle ~finish ~pe ~task_power)
              in
              pending := Some (Printf.sprintf "%s: node %d" what !nodes, v, keys, trajs, fp ());
              incr nodes
            in
            Inspect.set_observer (Some observe);
            Fun.protect ~finally:(fun () -> Inspect.set_observer None) (fun () ->
                f hotspot;
                settle ())
          in
          let what = Printf.sprintf "%s/%s" (Graph.name graph) pname in
          audit ~depth:true (what ^ "/run") (fun hotspot ->
              ignore
                (List_sched.run ~hotspot ~graph ~lib ~pes
                   ~policy:Policy.Thermal_aware ()
                  : Schedule.t));
          audit ~depth:false (what ^ "/adaptive") (fun hotspot ->
              ignore
                (List_sched.run_adaptive ~hotspot ~graph ~lib ~pes
                   ~policy:Policy.Thermal_aware ()
                  : Schedule.t * Policy.weights)))
        builtins)
    (List.map generated [ 2; 5; 8 ]);
  Alcotest.(check bool)
    (Printf.sprintf "%d exact costs checked, %d shared fixed points" !costs
       !shared)
    true
    (!costs > 10_000 && !shared > 100)

(* Two independent tasks of equal WCET and different power on two PEs of
   one kind: at the first step each starts at 0 on either PE, so their
   candidates on a PE share its finish and differ only in task power. At
   weight 0 every candidate's DC is its part, which the two tie on, so
   [pick] evaluates all four exactly: each must get its own fixed point's
   cost, not the cost of the other task's candidate on the same PE. *)
let test_task_power_keys_the_slot () =
  let kind = Catalog.platform_kind () in
  let lib =
    Library.of_tables ~kinds:[ kind ]
      ~wcet:[| [| 50.0 |]; [| 50.0 |] |]
      ~wcpc:[| [| 4.0 |]; [| 12.0 |] |]
      ()
  in
  let b = Graph.builder ~name:"twins" ~deadline:1000.0 in
  ignore (Graph.add_task b ~task_type:0 () : Task.id);
  ignore (Graph.add_task b ~task_type:1 () : Task.id);
  let graph = Graph.build b in
  let pes = Pe.instances [ kind; kind ] in
  let n_pes = Array.length pes in
  let o = oracle (Hotspot.inquiry (fresh_hotspot pes)) in
  let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes in
  (* The node's costs fill in place during its pick: checked after [run]. *)
  let seen = ref [] in
  Inspect.set_observer
    (Some (fun st v -> seen := (Inspect.pe_energy st, v) :: !seen));
  Fun.protect ~finally:(fun () -> Inspect.set_observer None) (fun () ->
      ignore
        (List_sched.run ~weights:{ Policy.cost_weight = 0.0 }
           ~hotspot:(fresh_hotspot pes) ~graph ~lib ~pes
           ~policy:Policy.Thermal_aware ()
          : Schedule.t));
  let twins = ref 0 in
  List.iter
    (fun (pe_energy, (v : Inspect.view)) ->
      let evaluated = Hashtbl.create 4 in
      Array.iteri
        (fun i pair ->
          let c = v.Inspect.v_costs.(i) in
          if not (Float.is_nan c) then begin
            let task = pair / n_pes and pe = pair mod n_pes in
            let finish = v.Inspect.v_starts.(i) +. 50.0 in
            let task_power = Library.wcpc lib ~task_type:task ~kind:0 in
            exact
              (Printf.sprintf "task %d on PE %d" task pe)
              (thermal_cost o ~pe_energy ~idle ~finish ~pe ~task_power).cost c;
            let key = (pe, bits finish) in
            if Hashtbl.mem evaluated key then incr twins;
            Hashtbl.add evaluated key ()
          end)
        v.Inspect.v_pairs)
    !seen;
  Alcotest.(check int) "PEs whose finish two task powers shared" 2 !twins

let () =
  Runner.run "memo"
    [
      ( "differential",
        [
          Alcotest.test_case "generated DAGs x policies x platforms" `Quick
            test_generated_dags;
        ] );
      ( "inquiries",
        [ Alcotest.test_case "Bm1 thermal: fewer inquiries, same fixed points"
            `Quick test_bm1_thermal_stats;
          Alcotest.test_case "std4 Bm1-Bm4 counters pinned" `Quick
            test_std4_counters_pinned ] );
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
      ( "reuse",
        [
          Alcotest.test_case "every node = a test-local fresh scan" `Quick
            test_reuse_is_a_fresh_scan;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "pick costs = oracle, one fixed point per inquiry"
            `Quick test_costs_match_oracle;
          Alcotest.test_case "task power keys the step slot" `Quick
            test_task_power_keys_the_slot;
        ] );
    ]
