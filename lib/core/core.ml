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
module Experiments = Experiments
module Paper_data = Paper_data
module Report = Report

let version = "1.0.0"

let schedule_platform ?n_pes ?(policy = Policy.Thermal_aware) graph =
  Flow.run_platform ?n_pes ~graph ~lib:(Catalog.platform_library ()) ~policy ()

let schedule_cosynthesis ?(policy = Policy.Thermal_aware) graph =
  Flow.run_cosynthesis ~graph ~lib:(Catalog.default_library ()) ~policy ()

let jobs_argv argv =
  let rec join = function
    | "--" :: _ as rest -> rest
    | ("-j" | "--jobs") :: v :: rest -> ("--jobs=" ^ v) :: join rest
    | a :: rest -> a :: join rest
    | [] -> []
  in
  Array.of_list (join (Array.to_list argv))
