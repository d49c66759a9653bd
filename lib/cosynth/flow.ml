module Graph = Tats_taskgraph.Graph
module Library = Tats_techlib.Library
module Pe = Tats_techlib.Pe
module Platform = Tats_techlib.Platform
module Constraints = Tats_sched.Constraints
module Block = Tats_floorplan.Block
module Placement = Tats_floorplan.Placement
module Grid = Tats_floorplan.Grid
module Ga = Tats_floorplan.Ga
module Package = Tats_thermal.Package
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module List_sched = Tats_sched.List_sched
module Online = Tats_sched.Online
module Metrics = Tats_sched.Metrics
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg

let m_iterations = Metricsreg.counter "flow.iterations"

type stage = Allocation | Floorplanning | Scheduling | Thermal_extraction

let stage_name = function
  | Allocation -> "allocation"
  | Floorplanning -> "floorplanning"
  | Scheduling -> "scheduling"
  | Thermal_extraction -> "thermal-extraction"

type log_entry = { stage : stage; detail : string }

type outcome = {
  schedule : Schedule.t;
  placement : Placement.t;
  hotspot : Hotspot.t;
  row : Metrics.row;
  report : Metrics.thermal_report;
  arch_cost : float;
  outer_iterations : int;
  inquiry : Tats_thermal.Inquiry.stats;
  log : log_entry list;
}

let inquiry_detail hotspot =
  let s = Hotspot.inquiry_stats hotspot in
  Printf.sprintf
    "%d HotSpot inquiries (%d cache hits; %d factored solves vs %d \
     dense-path equivalents)"
    (Hotspot.inquiries hotspot)
    s.Inquiry.cache_hits s.Inquiry.factored_solves s.Inquiry.dense_solves

let blocks_of_insts insts =
  Array.map
    (fun (i : Pe.inst) ->
      Block.make
        ~name:(Printf.sprintf "PE%d_%s" i.Pe.inst_id i.Pe.kind.Pe.kind_name)
        ~area:i.Pe.kind.Pe.area ())
    insts

let floorplan_cost ?(thermal = fun _ -> 0.0) ~blocks_area placement =
  let area_term = Placement.die_area placement /. blocks_area in
  (* Normalize wirelength by the die diagonal so it is scale-free. *)
  let diag =
    Float.max (Float.hypot placement.Placement.die_w placement.Placement.die_h) 1e-12
  in
  let n = Array.length placement.Placement.rects in
  let pairs = Float.max 1.0 (float_of_int (n * (n - 1) / 2)) in
  let wl_term = Placement.total_wirelength placement /. (diag *. pairs) in
  area_term +. (0.2 *. wl_term) +. thermal placement

let finalize ~leakage ~lib ~hotspot ~arch_cost ~outer ~log schedule placement =
  let report = Metrics.thermal_report ~leakage schedule ~hotspot in
  let row = Metrics.row_of_report schedule ~lib report in
  {
    schedule;
    placement;
    hotspot;
    row;
    report;
    arch_cost;
    outer_iterations = outer;
    inquiry = Hotspot.inquiry_stats hotspot;
    log = List.rev log;
  }

(* The thermal ASP searches for the strongest thermal weight that still
   meets the deadline (see List_sched.run_adaptive) — the paper's "reduce
   the peak temperature ... while meeting real time constraints". The other
   policies run once at their (possibly caller-supplied) weight. *)
let schedule_with_policy ?weights ?constraints ~hotspot ~graph ~lib ~insts
    ~policy () =
  match policy with
  | Policy.Thermal_aware ->
      fst
        (List_sched.run_adaptive ?base_weights:weights ?constraints ~hotspot
           ~graph ~lib ~pes:insts ~policy ())
  | Policy.Power_aware _ ->
      (* Power heuristics never stretch the schedule; their weight is only
         ever capped downward to keep the deadline. *)
      fst
        (List_sched.run_adaptive ?base_weights:weights ?constraints
           ~max_multiplier:1.0 ~hotspot ~graph ~lib ~pes:insts ~policy ())
  | Policy.Baseline ->
      List_sched.run ?weights ?constraints ~hotspot ~graph ~lib ~pes:insts
        ~policy ()

(* The grid-floorplan facade of a fixed platform: one block per PE slot,
   sized by the slot kind's area. *)
let platform_facade ?(package = Package.default) platform =
  Hotspot.create ~package
    (Grid.layout (blocks_of_insts (Platform.instances platform)))

(* The one platform path's entry: [?n_pes] is sugar for [n_pes] identical
   cores of the library's single kind. Either way the library needs one
   WCET/WCPC column per platform kind (dense ids on both sides, so a
   length check suffices after Library.check_kinds). *)
let resolve_platform ~what ~lib ~n_pes = function
  | Some p ->
      if Array.length (Library.kinds lib) <> Platform.n_kinds p then
        invalid_arg
          (what ^ ": the library must have one kind per platform kind");
      p
  | None ->
      if Array.length (Library.kinds lib) <> 1 then
        invalid_arg (what ^ ": the platform library must have one kind");
      if n_pes < 1 then invalid_arg (what ^ ": need at least one PE");
      let kind = Library.kind lib 0 in
      Platform.homogeneous
        ~name:(Printf.sprintf "%dx%s" n_pes kind.Pe.kind_name)
        ~kind ~n_pes

(* A caller-supplied [hotspot] (the serving layer's shared facade) must
   have one block per PE. *)
let check_hotspot ~what ~platform = function
  | Some h when Hotspot.n_blocks h <> Platform.n_pes platform ->
      invalid_arg (what ^ ": hotspot block count must equal n_pes")
  | _ -> ()

let run_platform ?(n_pes = 4) ?platform ?constraints
    ?(package = Package.default) ?hotspot ?weights ?(leakage = true) ~graph
    ~lib ~policy () =
  let what = "Flow.run_platform" in
  let platform = resolve_platform ~what ~lib ~n_pes platform in
  check_hotspot ~what ~platform hotspot;
  let n_pes = Platform.n_pes platform in
  Trace.with_span "flow.platform"
    ~args:
      [ ("pes", Trace.Int n_pes); ("policy", Trace.Str (Policy.name policy)) ]
  @@ fun () ->
  let log = ref [] in
  let push stage detail = log := { stage; detail } :: !log in
  push Allocation
    (Printf.sprintf "fixed platform %s: %d PEs, %d kinds"
       (Platform.name platform) n_pes (Platform.n_kinds platform));
  let hotspot =
    match hotspot with
    | Some h ->
        push Floorplanning "fixed grid floorplan (shared warmed facade)";
        h
    | None ->
        push Floorplanning "fixed grid floorplan";
        platform_facade ~package platform
  in
  let schedule =
    schedule_with_policy ?weights ?constraints ~hotspot ~graph ~lib
      ~insts:(Platform.instances platform) ~policy ()
  in
  push Scheduling
    (Printf.sprintf "policy %s, makespan %.1f / deadline %.0f" (Policy.name policy)
       schedule.Schedule.makespan (Graph.deadline graph));
  push Thermal_extraction (inquiry_detail hotspot);
  finalize ~leakage ~lib ~hotspot ~arch_cost:(Platform.cost platform) ~outer:1
    ~log:!log schedule (Hotspot.placement hotspot)

type arrival_source = Release_zero | Release_sporadic of int | Release_trace

let arrival_source_name = function
  | Release_zero -> "zero"
  | Release_sporadic _ -> "sporadic"
  | Release_trace -> "trace"

type online_outcome = {
  online : Online.run;
  clairvoyant_schedule : Schedule.t;
  score : Online.score;
  online_hotspot : Hotspot.t;
}

(* The canonical online-scenario assembly: every consumer (CLI, serving
   layer, golden demo, bench) goes through here so their numbers
   bit-compare equal. The platform is the exact run_platform facade;
   [hotspot] is the serving layer's engine-sharing hook, as above. *)
let run_online ?(n_pes = 4) ?platform ?constraints
    ?(package = Package.default) ?hotspot ?weights ?(mean_gap = 25.0) ?periods
    ~arrivals ~graph ~lib ~policy () =
  let what = "Flow.run_online" in
  let platform = resolve_platform ~what ~lib ~n_pes platform in
  check_hotspot ~what ~platform hotspot;
  Trace.with_span "flow.online"
    ~args:
      [
        ("pes", Trace.Int (Platform.n_pes platform));
        ("policy", Trace.Str (Online.policy_name policy));
        ("arrivals", Trace.Str (arrival_source_name arrivals));
      ]
  @@ fun () ->
  let insts = Platform.instances platform in
  let hotspot =
    match hotspot with
    | Some h -> h
    | None -> platform_facade ~package platform
  in
  let release =
    match arrivals with
    | Release_zero -> Online.zero graph
    | Release_sporadic seed -> Online.sporadic ~mean_gap ~seed graph
    | Release_trace ->
        (* Replay a previously observed execution: the offline baseline
           schedule's start times become the release stream. *)
        Online.of_trace
          (List_sched.run ?constraints ~graph ~lib ~pes:insts
             ~policy:Policy.Baseline ())
  in
  let online =
    Online.run ?weights ?constraints ~hotspot ~arrivals:release ~graph ~lib
      ~pes:insts ~policy ()
  in
  let clairvoyant_schedule =
    Online.clairvoyant ?weights ?constraints ~hotspot ~arrivals:release ~graph
      ~lib ~pes:insts
      ~policy:(Online.base_policy policy)
      ()
  in
  let score =
    Online.score ?periods ~lib ~hotspot ~clairvoyant:clairvoyant_schedule
      online
  in
  { online; clairvoyant_schedule; score; online_hotspot = hotspot }

(* Thermal term of the GA objective: the peak steady-state temperature of
   the placement under a fixed per-block power estimate, scaled to compete
   with the (dimensionless, ~1) area term. *)
let thermal_ga_term ~package ~power placement =
  let hotspot = Hotspot.create ~package placement in
  let peak = Hotspot.peak_temperature hotspot ~power in
  0.01 *. (peak -. package.Package.ambient)

let run_cosynthesis ?(package = Package.default) ?weights ?(leakage = true)
    ?(ga_params = Ga.default_params) ?(ga_seed = 42) ?(min_pes = 1) ?(max_pes = 8)
    ?(max_outer = 3) ?(refine_rounds = 1) ~graph ~lib ~policy () =
  if refine_rounds < 1 then invalid_arg "Flow.run_cosynthesis: refine_rounds < 1";
  if max_outer < 1 then invalid_arg "Flow.run_cosynthesis: max_outer < 1";
  let log = ref [] in
  let push stage detail = log := { stage; detail } :: !log in
  Trace.with_span "flow.cosynthesis"
    ~args:[ ("policy", Trace.Str (Policy.name policy)) ]
  @@ fun () ->
  let rec attempt outer min_pes =
    Metricsreg.incr m_iterations;
    Trace.with_span "flow.iteration" ~args:[ ("outer", Trace.Int outer) ]
    @@ fun () ->
    (* 1. Allocation. All policies share the baseline-ASP-driven selection
       (the paper's identical baseline/h2 rows show the policies shared an
       architecture); the DC policy then differentiates the assignment. *)
    let alloc, reused =
      Trace.with_span "flow.alloc" @@ fun () ->
      let alloc = Alloc.run ~max_pes ~min_pes ~graph ~lib () in
      (* Thermal-aware co-synthesis buys one PE of headroom beyond bare
         feasibility: the adaptive thermal ASP converts that slack into lower
         power density — temperature is part of its objective, so trading a
         little cost for it is the point of the flow. The search continues
         from the feasible allocation rather than repeating it. *)
      match policy with
      | Policy.Thermal_aware
        when alloc.Alloc.feasible && Array.length alloc.Alloc.insts < max_pes ->
          ( Alloc.run ~max_pes
              ~min_pes:(Array.length alloc.Alloc.insts + 1)
              ~from:alloc ~graph ~lib (),
            alloc.Alloc.asp_runs )
      | Policy.Thermal_aware | Policy.Baseline | Policy.Power_aware _ -> (alloc, 0)
    in
    push Allocation
      (Printf.sprintf "iteration %d: %d PEs (cost %.0f, %d trial schedules%s%s)"
         outer
         (Array.length alloc.Alloc.insts)
         alloc.Alloc.total_cost alloc.Alloc.asp_runs
         (if reused > 0 then
            Printf.sprintf ", the first %d from the feasible allocation" reused
          else "")
         (if alloc.Alloc.feasible then "" else ", infeasible at baseline"));
    let insts = alloc.Alloc.insts in
    let blocks = blocks_of_insts insts in
    let blocks_area = Array.fold_left (fun acc b -> acc +. b.Block.area) 0.0 blocks in
    (* 2 + 3. Floorplanning and scheduling, interleaved: the first
       floorplan is driven by a baseline schedule's power estimate; further
       refinement rounds re-floorplan under the *policy* schedule's powers
       and re-schedule on the improved placement — the Figure-1(a)
       interaction between the ASP and the floorplanner. *)
    let floorplan ~power_estimate ~round =
      Trace.with_span "flow.floorplan" ~args:[ ("round", Trace.Int round) ]
      @@ fun () ->
      let thermal =
        match policy with
        | Policy.Thermal_aware ->
            Some (thermal_ga_term ~package ~power:power_estimate)
        | Policy.Baseline | Policy.Power_aware _ -> None
      in
      let ga =
        if Array.length blocks = 1 then None
        else
          Some
            (Ga.run ~params:ga_params ~seed:ga_seed ~blocks
               ~cost:(floorplan_cost ?thermal ~blocks_area)
               ())
      in
      let placement =
        match ga with Some g -> g.Ga.best_placement | None -> Grid.layout blocks
      in
      push Floorplanning
        (match ga with
        | Some g ->
            Printf.sprintf "round %d: GA%s: cost %.3f after %d generations" round
              (match thermal with Some _ -> " (thermal-aware)" | None -> "")
              g.Ga.best_cost
              (Array.length g.Ga.history)
        | None -> "single block, trivial floorplan");
      placement
    in
    let baseline = List_sched.run ~graph ~lib ~pes:insts ~policy:Policy.Baseline () in
    let rec refine round power_estimate =
      let placement = floorplan ~power_estimate ~round in
      let hotspot = Hotspot.create ~package placement in
      let schedule =
        schedule_with_policy ?weights ~hotspot ~graph ~lib ~insts ~policy ()
      in
      push Scheduling
        (Printf.sprintf "round %d: policy %s, makespan %.1f / deadline %.0f" round
           (Policy.name policy) schedule.Schedule.makespan (Graph.deadline graph));
      if round < refine_rounds then
        refine (round + 1) (Metrics.pe_average_powers schedule)
      else (placement, hotspot, schedule)
    in
    let placement, hotspot, schedule =
      refine 1 (Metrics.pe_average_powers baseline)
    in
    (* 4. Meets requirement? *)
    if
      (not (Schedule.meets_deadline schedule))
      && outer < max_outer
      && Array.length insts < max_pes
    then begin
      (* The outcome attribute lands on the enclosing flow.iteration span:
         why this iteration did not finalize. *)
      Trace.add_attr "outcome" (Trace.Str "retry");
      attempt (outer + 1) (Array.length insts + 1)
    end
    else begin
      Trace.add_attr "outcome"
        (Trace.Str
           (if Schedule.meets_deadline schedule then "deadline-met"
            else "deadline-missed"));
      push Thermal_extraction (inquiry_detail hotspot);
      finalize ~leakage ~lib ~hotspot ~arch_cost:alloc.Alloc.total_cost ~outer
        ~log:!log schedule placement
    end
  in
  attempt 1 min_pes
