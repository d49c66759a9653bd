(** TATS — Thermal-Aware Task Allocation and Scheduling.

    OCaml reproduction of Hung, Xie, Vijaykrishnan, Kandemir & Irwin,
    "Thermal-Aware Task Allocation and Scheduling for Embedded Systems"
    (DATE 2005), together with every substrate it relies on: task graphs, a
    technology library, a HotSpot-style compact thermal model, a GA
    floorplanner, the list-scheduling ASP, and the two co-synthesis flows.

    {1 Quick start}

    {[
      let graph = Core.Benchmarks.load 0 in        (* Bm1 *)
      let lib = Core.Catalog.platform_library () in
      let outcome =
        Core.Flow.run_platform ~graph ~lib ~policy:Core.Policy.Thermal_aware ()
      in
      Format.printf "%a@." Core.Metrics.pp_row outcome.Core.Flow.row
    ]} *)

(** {1 Substrate modules} *)

module Rng = Tats_util.Rng
module Fsio = Tats_util.Fsio
module Stats = Tats_util.Stats
module Pool = Tats_util.Pool
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg
module Matrix = Tats_linalg.Matrix
module Lu = Tats_linalg.Lu
module Sparse = Tats_linalg.Sparse
module Cg = Tats_linalg.Cg
module Task = Tats_taskgraph.Task
module Graph = Tats_taskgraph.Graph
module Criticality = Tats_taskgraph.Criticality
module Analysis = Tats_taskgraph.Analysis
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
module Dot = Tats_taskgraph.Dot
module Tgff_io = Tats_taskgraph.Tgff_io
module Pe = Tats_techlib.Pe
module Comm = Tats_techlib.Comm
module Library = Tats_techlib.Library
module Catalog = Tats_techlib.Catalog
module Platform = Tats_techlib.Platform
module Block = Tats_floorplan.Block
module Placement = Tats_floorplan.Placement
module Slicing = Tats_floorplan.Slicing
module Ga = Tats_floorplan.Ga
module Grid = Tats_floorplan.Grid
module Package = Tats_thermal.Package
module Rcmodel = Tats_thermal.Rcmodel
module Steady = Tats_thermal.Steady
module Transient = Tats_thermal.Transient
module Gridmodel = Tats_thermal.Gridmodel
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry
module Policy = Tats_sched.Policy
module Schedule = Tats_sched.Schedule
module Constraints = Tats_sched.Constraints
module Dc = Tats_sched.Dc
module List_sched = Tats_sched.List_sched
module Heft = Tats_sched.Heft
module Sa_mapper = Tats_sched.Sa_mapper
module Dvs = Tats_sched.Dvs
module Dtm = Tats_sched.Dtm
module Replay = Tats_sched.Replay
module Online = Tats_sched.Online
module Metrics = Tats_sched.Metrics
module Svg = Tats_render.Svg
module Visuals = Tats_render.Visuals
module Alloc = Tats_cosynth.Alloc
module Flow = Tats_cosynth.Flow
module Pareto = Tats_cosynth.Pareto
module Serve = Tats_serve
module Campaign = Tats_campaign.Campaign

(** {1 Experiment reproduction} *)

module Experiments = Experiments
module Paper_data = Paper_data
module Report = Report

(** {1 Convenience} *)

val version : string

val schedule_platform :
  ?n_pes:int -> ?policy:Policy.t -> Graph.t -> Flow.outcome
(** Platform-flow shortcut with the default platform library; policy
    defaults to [Thermal_aware]. *)

val schedule_cosynthesis : ?policy:Policy.t -> Graph.t -> Flow.outcome
(** Co-synthesis shortcut with the default heterogeneous library; policy
    defaults to [Thermal_aware]. *)

val jobs_argv : string array -> string array
(** [argv] with every [-j V] / [--jobs V] pair joined into [--jobs=V]
    (arguments after [--] are left alone). Command-line parsers read a
    separate [-3] as an unknown option; joined, a negative count reaches
    the [--jobs] range check and its exit-2 message. [tats] and [tatsd]
    parse [jobs_argv Sys.argv]. *)
