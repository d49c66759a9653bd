(** Drivers that regenerate every table of the paper's evaluation.

    All runs are deterministic: fixed benchmark seeds, fixed library seed,
    fixed GA seed. Tables 2 and 3 carry the paper's conclusion baked in
    (H3 is the power-aware representative). *)

module Policy = Tats_sched.Policy
module Metrics = Tats_sched.Metrics
module Flow = Tats_cosynth.Flow

type cell = Metrics.row

type arch = Cosynthesis | Platform
(** The paper's two flows, Figure 1(a) and 1(b). *)

type table1_row = { bench : string; policy : Policy.t; cosynth : cell; platform : cell }

type versus_row = { bench : string; power : cell; thermal : cell }

type tables = {
  table1 : table1_row list;
      (** 4 benchmarks x (baseline, h1, h2, h3), Table 1 order *)
  table2 : versus_row list;
      (** power-aware (h3) vs thermal-aware, co-synthesis architecture *)
  table3 : versus_row list;  (** the same comparison on the platform *)
}

val tables : unit -> tables
(** Tables 1–3 from the builtin campaigns ["table1"]–["table3"]
    ({!Tats_campaign.Campaign.builtin}), which are the one definition of
    their cells: the union of the three expansions, de-duplicated by
    {!Tats_campaign.Campaign.cell_id} (40 cells; Tables 2 and 3 repeat
    Table 1's h3 cells), each run once by
    {!Tats_campaign.Campaign.run_cell} on {!Tats_util.Pool.default}.
    Rows follow each builtin's expansion order. Cell values are pure, so
    the tables are identical at any pool size and bit-identical to
    {!Tats_campaign.Campaign.collect} on the same builtins. *)

type reduction = { d_max_temp : float; d_avg_temp : float }

val average_reduction : versus_row list -> reduction
(** Mean (power - thermal) over the rows; positive = thermal wins. *)

type shape_check = { check : string; holds : bool; detail : string }

val shape_checks :
  table1:table1_row list ->
  table2:versus_row list ->
  table3:versus_row list ->
  shape_check list
(** The reproduction criteria of DESIGN.md §2: H3 best power heuristic,
    thermal beats power on max and avg temperature on both architectures,
    platform cooler than co-synthesis. *)

val workload_balance : bench:int -> (Policy.t * float) list
(** Utilization spread (max - min) per policy on the platform architecture —
    evidence for the paper's "thermal ASP balances the workloads" claim. *)

type robustness = {
  n_graphs : int;
  wins_max : int;  (** graphs where thermal max-temp beats power-aware *)
  wins_avg : int;
  mean_reduction : reduction; (** mean (power - thermal) over the sample *)
}

val robustness : ?n:int -> ?seed:int -> ?tasks:int -> unit -> robustness
(** Beyond the paper's four benchmarks: draw [n] (default 12) random
    layered graphs of [tasks] (default 30) tasks with random edge counts
    and deadlines, and compare the power-aware (h3) and thermal-aware
    platform flows on each. The paper's conclusion should not depend on
    its particular benchmark draws; this measures how often it holds on
    fresh ones. Deterministic in [seed] (default 2005). *)

type floorplan_study_row = {
  seed : int;
  n_blocks : int;
  area_only_peak : float;    (** peak °C of the area-driven floorplan *)
  thermal_aware_peak : float;
  area_overhead : float;     (** thermal-aware die area / area-only die area *)
}

val floorplan_study : ?seeds:int list -> ?n_blocks:int -> unit -> floorplan_study_row list
(** The ISQED'05 [3] experiment shape: on random block sets with random
    power assignments, compare the GA floorplanner under its area objective
    against the thermal-aware objective (area + peak temperature). The
    thermal-aware floorplan separates hot blocks at a small area cost.
    [seeds] defaults to [1; 2; 3; 4]; [n_blocks] to 6. *)

type transient_demo = {
  t_bench : string;
  period_s : float;          (** one schedule period, seconds *)
  dt_s : float;              (** integration step, seconds *)
  t_periods : int;
  t_steps : int;             (** integration steps the replay took *)
  pe_steady : float array;   (** steady-state per-PE temperature, °C *)
  pe_transient_peak : float array;
      (** per-PE peak over the last replayed period, °C *)
  dtm_makespan : float;
  dtm_peak : float;
  dtm_throttled : float;
}

val transient_demo : ?bench:int -> ?periods:int -> unit -> transient_demo
(** Deterministic end-to-end exercise of the event-driven transient engine
    and the DTM simulator on one platform benchmark (default Bm1,
    thermal-aware policy): replay the schedule's exact power breakpoints
    for [periods] (default 25) periods at dt = period/100, and run DTM with
    a 70 °C trigger. The golden test byte-compares
    {!Report.transient_demo} of this value. *)

type online_row = {
  o_arrivals : string;          (** "zero" / "sporadic" / "trace" *)
  o_policy : string;
  o_events : int;               (** decision points the event loop visited *)
  o_deferrals : int;            (** reactive cooldown stalls *)
  o_makespan : float;
  o_clair_makespan : float;
  o_makespan_ratio : float;     (** empirical competitive ratio, >= 1 *)
  o_peak : float;               (** replay-scored peak temperature, °C *)
  o_clair_peak : float;
  o_peak_ratio : float;
}

type online_demo = { o_bench : string; o_seed : int; o_rows : online_row list }

val online_demo : ?bench:int -> ?seed:int -> unit -> online_demo
(** Deterministic exercise of the online reactive scheduler (default Bm1,
    seed 1) across the arrival sources and policies: the degenerate zero
    stream (whose makespan ratio is exactly 1 — online equals offline bit
    for bit), seeded sporadic streams under mirror and reactive policies,
    and the trace-driven stream. Every scenario goes through
    {!Tats_cosynth.Flow.run_online}. The golden test byte-compares
    {!Report.online_demo} of this value. *)

val campaign_demo : unit -> Tats_campaign.Campaign.summary
(** The builtin ["golden"] campaign (one paper benchmark plus one
    generated DAG, three policies, two ambient/budget platform points)
    run sequentially in memory via {!Tats_campaign.Campaign.collect} —
    bit-identical to running the same spec through
    {!Tats_campaign.Campaign.run} and summarizing its manifest. The
    golden test byte-compares {!Report.campaign_summary} of this
    value. *)

type hetero_row = {
  h_platform : string;          (** builtin platform name *)
  h_slots : string;             (** slot composition, e.g. ["2xbig-core+2xlittle-core"] *)
  h_policy : Policy.t;
  h_pins : int;                 (** pinned tasks in the cell's constraint spec *)
  h_classes : int;              (** distinct criticality classes *)
  h_makespan : float;
  h_cell : cell;
  h_arch_cost : float;          (** sum of per-slot kind costs *)
}

type hetero_demo = {
  h_bench : string;
  h_rows : hetero_row list;
  h_degenerate_identical : bool;
      (** true iff the named ["std4"] platform reproduced the default
          [?n_pes] platform bit for bit under all five policies
          (makespan, power, temperatures, arch cost) *)
}

val hetero_demo : ?bench:int -> unit -> hetero_demo
(** Deterministic exercise of the heterogeneous platform flow (default
    Bm1): every builtin platform under baseline and thermal-aware
    policies, plus two constrained cells (a task pinned to the LITTLE
    cluster; a three-class criticality partition on the six-core mix),
    all via {!Tats_cosynth.Flow.run_platform} with
    {!Tats_techlib.Catalog.library_for} per-kind WCET columns. The golden
    test byte-compares {!Report.hetero_demo} of this value. *)
