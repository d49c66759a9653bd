module Benchmarks = Tats_taskgraph.Benchmarks
module Catalog = Tats_techlib.Catalog
module Policy = Tats_sched.Policy
module Metrics = Tats_sched.Metrics
module Flow = Tats_cosynth.Flow
module Stats = Tats_util.Stats
module Pool = Tats_util.Pool
module Campaign = Tats_campaign.Campaign

type cell = Metrics.row

type arch = Cosynthesis | Platform

type table1_row = { bench : string; policy : Policy.t; cosynth : cell; platform : cell }
type versus_row = { bench : string; power : cell; thermal : cell }

type tables = {
  table1 : table1_row list;
  table2 : versus_row list;
  table3 : versus_row list;
}

(* Consecutive cells of an expansion: Table 1's platform axis is
   (co-synthesis, platform) and Tables 2-3's policy axis is (h3, thermal),
   both innermost, so each row is one pair. *)
let rec pairs = function a :: b :: rest -> (a, b) :: pairs rest | _ -> []

(* Tables 2 and 3 repeat Table 1's h3 cells, so each distinct cell id runs
   once: one pool task per cell ([chunk:1] — cells are coarse and few).
   Inside a cell, the nested GA maps degrade to inline execution; cell
   values are pure, so the tables are identical at any pool size. *)
let tables () =
  let cells name = Campaign.expand (Option.get (Campaign.builtin name)) in
  let t1 = cells "table1" and t2 = cells "table2" and t3 = cells "table3" in
  let index = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun c ->
        let id = Campaign.cell_id c in
        let fresh = not (Hashtbl.mem index id) in
        if fresh then Hashtbl.add index id (Hashtbl.length index);
        fresh)
      (t1 @ t2 @ t3)
  in
  let results =
    Pool.parallel_map ~chunk:1 (Pool.default ()) Campaign.run_cell
      (Array.of_list distinct)
  in
  let cell c =
    let r = results.(Hashtbl.find index (Campaign.cell_id c)) in
    {
      Metrics.total_power = r.Campaign.total_power;
      max_temp = r.Campaign.max_temp;
      avg_temp = r.Campaign.avg_temp;
    }
  in
  let bench (c : Campaign.cell) = Campaign.graph_label c.Campaign.graph in
  let versus cells =
    List.map
      (fun (p, t) -> { bench = bench p; power = cell p; thermal = cell t })
      (pairs cells)
  in
  {
    table1 =
      List.map
        (fun (c, p) ->
          { bench = bench c; policy = c.Campaign.policy; cosynth = cell c; platform = cell p })
        (pairs t1);
    table2 = versus t2;
    table3 = versus t3;
  }

type reduction = { d_max_temp : float; d_avg_temp : float }

let average_reduction rows =
  let n = float_of_int (List.length rows) in
  let dmax =
    List.fold_left
      (fun acc r -> acc +. (r.power.Metrics.max_temp -. r.thermal.Metrics.max_temp))
      0.0 rows
  in
  let davg =
    List.fold_left
      (fun acc r -> acc +. (r.power.Metrics.avg_temp -. r.thermal.Metrics.avg_temp))
      0.0 rows
  in
  { d_max_temp = dmax /. n; d_avg_temp = davg /. n }

type shape_check = { check : string; holds : bool; detail : string }

let mean_by rows ~policy ~proj =
  let selected = List.filter (fun r -> r.policy = policy) rows in
  Stats.mean (Array.of_list (List.map proj selected))

let shape_checks ~table1 ~table2 ~table3 =
  let h3_best arch proj =
    let m p = mean_by table1 ~policy:p ~proj in
    let h3 = m (Policy.Power_aware Policy.Min_task_energy) in
    let h1 = m (Policy.Power_aware Policy.Min_task_power) in
    let h2 = m (Policy.Power_aware Policy.Min_pe_average_power) in
    let base = m Policy.Baseline in
    {
      check = Printf.sprintf "Table1/%s: H3 coolest power heuristic (avg temp)" arch;
      holds = h3 <= h1 +. 1e-9 && h3 <= h2 +. 1e-9 && h3 <= base +. 1e-9;
      detail =
        Printf.sprintf "baseline %.2f, h1 %.2f, h2 %.2f, h3 %.2f °C" base h1 h2 h3;
    }
  in
  let thermal_wins name rows =
    let r = average_reduction rows in
    {
      check = Printf.sprintf "%s: thermal-aware reduces both temperatures" name;
      holds = r.d_max_temp > 0.0 && r.d_avg_temp > 0.0;
      detail =
        Printf.sprintf "avg reduction: %.2f °C max, %.2f °C avg" r.d_max_temp
          r.d_avg_temp;
    }
  in
  let platform_cooler =
    (* The paper's claim compares the thermal-aware rows of Tables 2 and 3:
       the platform thermal ASP balances all PEs and lands cooler than the
       customized architecture. *)
    let mean rows proj = Stats.mean (Array.of_list (List.map proj rows)) in
    let cos_max = mean table2 (fun r -> r.thermal.Metrics.max_temp) in
    let plat_max = mean table3 (fun r -> r.thermal.Metrics.max_temp) in
    let cos_avg = mean table2 (fun r -> r.thermal.Metrics.avg_temp) in
    let plat_avg = mean table3 (fun r -> r.thermal.Metrics.avg_temp) in
    {
      check = "Thermal ASP on platform cooler than on customized architecture";
      holds = plat_max < cos_max && plat_avg < cos_avg;
      detail =
        Printf.sprintf
          "max: platform %.2f vs co-synthesis %.2f °C; avg: %.2f vs %.2f °C"
          plat_max cos_max plat_avg cos_avg;
    }
  in
  [
    h3_best "cosynth" (fun r -> r.cosynth.Metrics.avg_temp);
    h3_best "platform" (fun r -> r.platform.Metrics.avg_temp);
    thermal_wins "Table2 (co-synthesis)" table2;
    thermal_wins "Table3 (platform)" table3;
    platform_cooler;
  ]

let workload_balance ~bench =
  let graph = Benchmarks.load bench and lib = Catalog.platform_library () in
  List.map
    (fun policy ->
      let o = Flow.run_platform ~graph ~lib ~policy () in
      (policy, Metrics.utilization_spread o.Flow.schedule))
    Policy.all

type robustness = {
  n_graphs : int;
  wins_max : int;
  wins_avg : int;
  mean_reduction : reduction;
}

let robustness ?(n = 12) ?(seed = 2005) ?(tasks = 30) () =
  if n < 1 || tasks < 2 then invalid_arg "Experiments.robustness: bad parameters";
  let module Generator = Tats_taskgraph.Generator in
  let module Rng = Tats_util.Rng in
  let rng = Rng.create seed in
  let lib = Catalog.platform_library () in
  let wins_max = ref 0 and wins_avg = ref 0 in
  let sum_max = ref 0.0 and sum_avg = ref 0.0 in
  for i = 1 to n do
    let lo, hi = Generator.feasible_edges ~n_tasks:tasks in
    let n_edges = Rng.range rng lo (Stdlib.min hi (2 * tasks)) in
    (* Deadlines with moderate slack: enough for feasibility on 4 PEs,
       loose enough for the thermal trade to exist. *)
    let deadline = float_of_int (Rng.range rng (tasks * 25) (tasks * 45)) in
    let graph =
      Generator.generate
        ~seed:(Rng.int rng 1_000_000)
        ~name:(Printf.sprintf "rand%d" i)
        {
          Generator.default_spec with
          Generator.n_tasks = tasks;
          n_edges;
          deadline;
          n_task_types = Tats_taskgraph.Benchmarks.n_task_types;
        }
    in
    let run policy = (Flow.run_platform ~graph ~lib ~policy ()).Flow.row in
    let power = run (Policy.Power_aware Policy.Min_task_energy) in
    let thermal = run Policy.Thermal_aware in
    let d_max = power.Metrics.max_temp -. thermal.Metrics.max_temp in
    let d_avg = power.Metrics.avg_temp -. thermal.Metrics.avg_temp in
    if d_max > 0.0 then incr wins_max;
    if d_avg > 0.0 then incr wins_avg;
    sum_max := !sum_max +. d_max;
    sum_avg := !sum_avg +. d_avg
  done;
  {
    n_graphs = n;
    wins_max = !wins_max;
    wins_avg = !wins_avg;
    mean_reduction =
      {
        d_max_temp = !sum_max /. float_of_int n;
        d_avg_temp = !sum_avg /. float_of_int n;
      };
  }

type floorplan_study_row = {
  seed : int;
  n_blocks : int;
  area_only_peak : float;
  thermal_aware_peak : float;
  area_overhead : float;
}

let floorplan_study ?(seeds = [ 1; 2; 3; 4 ]) ?(n_blocks = 6) () =
  let module Block = Tats_floorplan.Block in
  let module Placement = Tats_floorplan.Placement in
  let module Ga = Tats_floorplan.Ga in
  let module Hotspot = Tats_thermal.Hotspot in
  let module Rng = Tats_util.Rng in
  List.map
    (fun seed ->
      let rng = Rng.create (1000 + seed) in
      let blocks =
        Array.init n_blocks (fun i ->
            Block.make ~name:(Printf.sprintf "b%d" i)
              ~area:(Rng.uniform rng 6e-6 2.5e-5)
              ())
      in
      (* A skewed power assignment: two hot blocks, the rest lukewarm. *)
      let power =
        Array.init n_blocks (fun i ->
            if i < 2 then Rng.uniform rng 8.0 12.0 else Rng.uniform rng 0.5 2.0)
      in
      let blocks_area = Array.fold_left (fun a b -> a +. b.Block.area) 0.0 blocks in
      let peak placement =
        Hotspot.peak_temperature (Hotspot.create placement) ~power
      in
      let area_only =
        Ga.run ~seed ~blocks ~cost:(Flow.floorplan_cost ~blocks_area) ()
      in
      let thermal_aware =
        Ga.run ~seed ~blocks
          ~cost:(fun p ->
            Flow.floorplan_cost ~blocks_area p
            +. (0.05 *. (peak p -. Tats_thermal.Package.default.Tats_thermal.Package.ambient)))
          ()
      in
      {
        seed;
        n_blocks;
        area_only_peak = peak area_only.Ga.best_placement;
        thermal_aware_peak = peak thermal_aware.Ga.best_placement;
        area_overhead =
          Placement.die_area thermal_aware.Ga.best_placement
          /. Float.max (Placement.die_area area_only.Ga.best_placement) 1e-12;
      })
    seeds

type transient_demo = {
  t_bench : string;
  period_s : float;
  dt_s : float;
  t_periods : int;
  t_steps : int;
  pe_steady : float array;
  pe_transient_peak : float array;
  dtm_makespan : float;
  dtm_peak : float;
  dtm_throttled : float;
}

let transient_demo ?(bench = 0) ?(periods = 25) () =
  let module Replay = Tats_sched.Replay in
  let module Transient = Tats_thermal.Transient in
  let module Dtm = Tats_sched.Dtm in
  let module Hotspot = Tats_thermal.Hotspot in
  let module Schedule = Tats_sched.Schedule in
  let graph = Benchmarks.load bench in
  let lib = Catalog.platform_library () in
  let o = Flow.run_platform ~graph ~lib ~policy:Policy.Thermal_aware () in
  let s = o.Flow.schedule in
  let model = Hotspot.model o.Flow.hotspot in
  let n_pes = Schedule.n_pes s in
  let profile = Replay.of_schedule ~lib s in
  let period_s = Transient.profile_duration profile in
  let dt_s = period_s /. 100.0 in
  let engine = Transient.create (Transient.of_model model) in
  let r =
    Transient.replay engine ~profile
      ~t0:(Transient.initial_ambient model)
      ~dt:dt_s ~periods
  in
  let dtm =
    Dtm.simulate
      ~params:{ Tats_sched.Dtm.default_params with Tats_sched.Dtm.trigger = 70.0 }
      ~lib ~hotspot:o.Flow.hotspot s
  in
  {
    t_bench = Tats_taskgraph.Graph.name graph;
    period_s;
    dt_s;
    t_periods = periods;
    t_steps = r.Transient.steps;
    pe_steady = Array.sub o.Flow.report.Metrics.block_temps 0 n_pes;
    pe_transient_peak = Array.sub r.Transient.last_period_peak 0 n_pes;
    dtm_makespan = dtm.Dtm.makespan;
    dtm_peak = dtm.Dtm.peak_temperature;
    dtm_throttled = dtm.Dtm.throttled_fraction;
  }

type online_row = {
  o_arrivals : string;
  o_policy : string;
  o_events : int;
  o_deferrals : int;
  o_makespan : float;
  o_clair_makespan : float;
  o_makespan_ratio : float;
  o_peak : float;
  o_clair_peak : float;
  o_peak_ratio : float;
}

type online_demo = { o_bench : string; o_seed : int; o_rows : online_row list }

let online_scenarios seed =
  let module Online = Tats_sched.Online in
  [
    (Flow.Release_zero, Online.Mirror Policy.Thermal_aware);
    (Flow.Release_sporadic seed, Online.Mirror Policy.Baseline);
    (Flow.Release_sporadic seed, Online.Mirror Policy.Thermal_aware);
    (Flow.Release_sporadic seed, Online.Reactive Online.default_reactive);
    (* A trigger low enough that the platform is "hot" at decision points:
       this row exercises both migration pressure and cooldown deferrals. *)
    ( Flow.Release_sporadic seed,
      Online.Reactive { Online.default_reactive with Online.trigger = 50.0 } );
    (Flow.Release_trace, Online.Mirror Policy.Thermal_aware);
  ]

let online_demo ?(bench = 0) ?(seed = 1) () =
  let module Online = Tats_sched.Online in
  let module Schedule = Tats_sched.Schedule in
  let graph = Benchmarks.load bench in
  let lib = Catalog.platform_library () in
  let rows =
    List.map
      (fun (arrivals, policy) ->
        let o = Flow.run_online ~arrivals ~graph ~lib ~policy () in
        let s = o.Flow.score in
        {
          o_arrivals = Flow.arrival_source_name arrivals;
          o_policy = Online.policy_name policy;
          o_events = o.Flow.online.Online.stats.Online.events;
          o_deferrals = o.Flow.online.Online.stats.Online.deferrals;
          o_makespan = s.Online.online_makespan;
          o_clair_makespan = s.Online.clairvoyant_makespan;
          o_makespan_ratio = s.Online.makespan_ratio;
          o_peak = s.Online.online_peak;
          o_clair_peak = s.Online.clairvoyant_peak;
          o_peak_ratio = s.Online.peak_ratio;
        })
      (online_scenarios seed)
  in
  { o_bench = Tats_taskgraph.Graph.name graph; o_seed = seed; o_rows = rows }

let campaign_demo () =
  match Tats_campaign.Campaign.builtin "golden" with
  | Some spec -> Tats_campaign.Campaign.collect spec
  | None -> invalid_arg "campaign_demo: builtin golden spec missing"

type hetero_row = {
  h_platform : string;
  h_slots : string;
  h_policy : Policy.t;
  h_pins : int;
  h_classes : int;
  h_makespan : float;
  h_cell : cell;
  h_arch_cost : float;
}

type hetero_demo = {
  h_bench : string;
  h_rows : hetero_row list;
  h_degenerate_identical : bool;
}

(* "2xbig-core+2xlittle-core" — slot composition in slot order. *)
let slot_summary p =
  let module Platform = Tats_techlib.Platform in
  let counts = Hashtbl.create 4 in
  let order = ref [] in
  for slot = 0 to Platform.n_pes p - 1 do
    let name = (Platform.kind_of_slot p slot).Tats_techlib.Pe.kind_name in
    match Hashtbl.find_opt counts name with
    | Some n -> Hashtbl.replace counts name (n + 1)
    | None ->
        Hashtbl.add counts name 1;
        order := name :: !order
  done;
  List.rev !order
  |> List.map (fun name -> Printf.sprintf "%dx%s" (Hashtbl.find counts name) name)
  |> String.concat "+"

let hetero_scenarios () =
  let module C = Tats_sched.Constraints in
  [
    ("std4", Policy.Baseline, C.empty);
    ("std4", Policy.Thermal_aware, C.empty);
    ("biglittle4", Policy.Baseline, C.empty);
    ("biglittle4", Policy.Thermal_aware, C.empty);
    ("mixed6", Policy.Baseline, C.empty);
    ("mixed6", Policy.Thermal_aware, C.empty);
    (* Constrained cells: a task forced onto the LITTLE cluster, and a
       three-class criticality partition on the six-core mix. *)
    ( "biglittle4",
      Policy.Thermal_aware,
      { C.pins = [ (0, C.To_kind 1) ]; isolation = [ (1, 0); (2, 1) ] } );
    ( "mixed6",
      Policy.Baseline,
      {
        C.pins = [ (0, C.To_pe 0); (3, C.To_kind 2) ];
        isolation = [ (1, 0); (2, 1); (4, 2) ];
      } );
  ]

let hetero_demo ?(bench = 0) () =
  let module Schedule = Tats_sched.Schedule in
  let module C = Tats_sched.Constraints in
  let graph = Benchmarks.load bench in
  let rows =
    List.map
      (fun (pname, policy, constraints) ->
        let platform = Option.get (Catalog.platform_named pname) in
        let o =
          Flow.run_platform ~platform ~constraints ~graph
            ~lib:(Catalog.library_for platform) ~policy ()
        in
        {
          h_platform = pname;
          h_slots = slot_summary platform;
          h_policy = policy;
          h_pins = List.length constraints.C.pins;
          h_classes =
            List.length
              (List.sort_uniq compare (List.map snd constraints.C.isolation));
          h_makespan = o.Flow.schedule.Schedule.makespan;
          h_cell = o.Flow.row;
          h_arch_cost = o.Flow.arch_cost;
        })
      (hetero_scenarios ())
  in
  (* The named single-kind platform must reproduce the default [?n_pes]
     platform bit for bit, for every policy. *)
  let degenerate_identical =
    let std4 = Option.get (Catalog.platform_named "std4") in
    let bits = Int64.bits_of_float in
    List.for_all
      (fun policy ->
        let classic =
          Flow.run_platform ~graph ~lib:(Catalog.platform_library ()) ~policy ()
        in
        let typed =
          Flow.run_platform ~platform:std4 ~graph ~lib:(Catalog.library_for std4)
            ~policy ()
        in
        bits classic.Flow.schedule.Schedule.makespan
        = bits typed.Flow.schedule.Schedule.makespan
        && bits classic.Flow.row.Metrics.total_power
           = bits typed.Flow.row.Metrics.total_power
        && bits classic.Flow.row.Metrics.max_temp
           = bits typed.Flow.row.Metrics.max_temp
        && bits classic.Flow.row.Metrics.avg_temp
           = bits typed.Flow.row.Metrics.avg_temp
        && bits classic.Flow.arch_cost = bits typed.Flow.arch_cost)
      Policy.all
  in
  {
    h_bench = Tats_taskgraph.Graph.name graph;
    h_rows = rows;
    h_degenerate_identical = degenerate_identical;
  }
