(** The two end-to-end flows of the paper's Figure 1.

    {b (a) Co-synthesis}: allocation from the heterogeneous catalogue ->
    ASP -> thermal-aware floorplanning (GA) with HotSpot in the loop ->
    temperature extraction; if the policy ASP misses the deadline on the
    allocated architecture, the loop re-enters allocation with one more PE
    ("Meets requirement? No").

    {b (b) Platform-based}: fixed architecture (four identical PEs on a
    grid floorplan); the modified ASP activates HotSpot directly with
    thermal inquiries. *)

module Graph = Tats_taskgraph.Graph
module Library = Tats_techlib.Library
module Pe = Tats_techlib.Pe
module Platform = Tats_techlib.Platform
module Constraints = Tats_sched.Constraints
module Placement = Tats_floorplan.Placement
module Ga = Tats_floorplan.Ga
module Package = Tats_thermal.Package
module Hotspot = Tats_thermal.Hotspot
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Metrics = Tats_sched.Metrics

type stage = Allocation | Floorplanning | Scheduling | Thermal_extraction

val stage_name : stage -> string

type log_entry = { stage : stage; detail : string }

type outcome = {
  schedule : Schedule.t;
  placement : Placement.t;
  hotspot : Hotspot.t;
  row : Metrics.row;          (** the paper's Total Pow / Max Temp / Avg Temp *)
  report : Metrics.thermal_report;
  arch_cost : float;          (** catalogue cost of the selected PEs *)
  outer_iterations : int;     (** times the "meets requirement?" loop ran *)
  inquiry : Tats_thermal.Inquiry.stats;
      (** inquiry-engine counters of the final hotspot: inquiries served,
          cache hits, fixed-point iterations, factored vs dense-equivalent
          solves, wall time *)
  log : log_entry list;       (** stage trace, in execution order *)
}

val run_platform :
  ?n_pes:int ->
  ?platform:Platform.t ->
  ?constraints:Constraints.spec ->
  ?package:Package.t ->
  ?hotspot:Hotspot.t ->
  ?weights:Policy.weights ->
  ?leakage:bool ->
  graph:Graph.t ->
  lib:Library.t ->
  policy:Policy.t ->
  unit ->
  outcome
(** Figure 1(b). The architecture is one typed {!Platform.t}: [platform]
    when given (then [n_pes] is ignored), else [n_pes] (default 4)
    identical cores of [lib]'s single kind — pure sugar for
    [Platform.homogeneous], so ["std4"] and the default give the same
    numbers. [lib] must carry one WCET/WCPC column per platform kind (see
    {!Tats_techlib.Catalog.library_for}); without [platform] that means
    exactly one kind (see {!Tats_techlib.Catalog.platform_library}), and
    [n_pes < 1] raises [Invalid_argument]. The thermal blocks take each
    slot's kind area (per-kind power densities flow into the
    Steady/Transient models), and the architecture cost is
    {!Platform.cost}.

    [constraints] (pins, isolation — see {!Tats_sched.Constraints}) is
    forwarded to the scheduler; invalid specs raise
    {!Tats_sched.Constraints.Invalid}, dead-ends
    {!Tats_sched.Constraints.Infeasible}.

    [hotspot], when supplied, must wrap a placement with one block per
    platform PE ([Invalid_argument] otherwise); the flow then schedules
    against that facade — and its already-warm step tables — instead of
    building {!platform_facade}, and [package] is ignored. This is the serving
    layer's engine-sharing hook ([Tats_serve.Engines]): table answers are
    bit-exact copies of fresh solves, so the outcome's numbers are
    identical to a cold run; only the [inquiry] counters (cumulative over
    the facade's lifetime) differ. *)

val platform_facade : ?package:Package.t -> Platform.t -> Hotspot.t
(** The fixed architecture's thermal facade: one block per PE slot, sized
    by the slot kind's area, on a grid floorplan under [package] (default
    {!Package.default}). *)

(** {1 Online scheduling scenarios} *)

type arrival_source =
  | Release_zero  (** everything releases at t = 0 *)
  | Release_sporadic of int
      (** seeded sporadic stream ({!Tats_sched.Online.sporadic}) *)
  | Release_trace
      (** the offline baseline schedule's start times replayed as releases *)

val arrival_source_name : arrival_source -> string
(** ["zero"], ["sporadic"], ["trace"]. *)

type online_outcome = {
  online : Tats_sched.Online.run;
  clairvoyant_schedule : Schedule.t;
  score : Tats_sched.Online.score;
  online_hotspot : Hotspot.t;
}

val run_online :
  ?n_pes:int ->
  ?platform:Platform.t ->
  ?constraints:Constraints.spec ->
  ?package:Package.t ->
  ?hotspot:Hotspot.t ->
  ?weights:Policy.weights ->
  ?mean_gap:float ->
  ?periods:int ->
  arrivals:arrival_source ->
  graph:Graph.t ->
  lib:Library.t ->
  policy:Tats_sched.Online.policy ->
  unit ->
  online_outcome
(** The canonical online streaming scenario on the platform architecture:
    build the {!run_platform} facade (or reuse [hotspot], the serving
    layer's engine-sharing hook — same block-count contract as
    {!run_platform}), derive the arrival stream from [arrivals]
    ([mean_gap] feeds the sporadic generator), run the online event loop,
    run the clairvoyant baseline under the online policy's base DC
    family, and replay-score both ([periods] as in
    {!Tats_sched.Online.score}). [platform] and [constraints] behave as in
    {!run_platform} (typed heterogeneous platforms; pins and isolation
    apply to the online player, the clairvoyant baseline and the
    trace-release pre-run alike). Every consumer — CLI, server, goldens,
    bench — assembles the scenario through this function, so their
    numbers bit-compare equal. *)

val run_cosynthesis :
  ?package:Package.t ->
  ?weights:Policy.weights ->
  ?leakage:bool ->
  ?ga_params:Ga.params ->
  ?ga_seed:int ->
  ?min_pes:int ->
  ?max_pes:int ->
  ?max_outer:int ->
  ?refine_rounds:int ->
  graph:Graph.t ->
  lib:Library.t ->
  policy:Policy.t ->
  unit ->
  outcome
(** Figure 1(a). The floorplanning GA minimizes die area + wirelength for
    the traditional policies and additionally peak temperature (under the
    baseline schedule's PE powers) for [Thermal_aware] — the paper's
    "thermal-aware floorplanning" stage. [min_pes] (default 1) forces a
    larger architecture than bare feasibility needs (design-space
    exploration); [max_outer] (default 3) bounds the requirement loop;
    [refine_rounds] (default 1) iterates the floorplan <-> schedule
    interaction — round 2+ re-floorplans under the policy schedule's own
    PE powers and re-schedules on that placement. *)

val floorplan_cost :
  ?thermal:(Placement.t -> float) -> blocks_area:float -> Placement.t -> float
(** The GA objective: [die_area / blocks_area + 0.2 * normalized wirelength
    + thermal placement] (thermal defaults to [fun _ -> 0.]). Exposed for
    tests and the ablation bench. *)

val thermal_ga_term :
  package:Package.t -> power:float array -> Placement.t -> float
(** The thermal term {!run_cosynthesis} passes to {!floorplan_cost}:
    [0.01 * (peak - ambient)], the peak steady-state temperature of the
    placement under the per-block [power], from a fresh private
    {!Tats_thermal.Hotspot}. Exposed for tests. *)
