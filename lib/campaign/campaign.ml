module Fsio = Tats_util.Fsio
module Pool = Tats_util.Pool
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg
module Graph = Tats_taskgraph.Graph
module Generator = Tats_taskgraph.Generator
module Benchmarks = Tats_taskgraph.Benchmarks
module Catalog = Tats_techlib.Catalog
module Platform = Tats_techlib.Platform
module Package = Tats_thermal.Package
module Policy = Tats_sched.Policy
module Constraints = Tats_sched.Constraints
module Schedule = Tats_sched.Schedule
module Metrics = Tats_sched.Metrics
module Flow = Tats_cosynth.Flow
module Json = Tats_serve.Json
module Protocol = Tats_serve.Protocol

type graph_spec =
  | Bench of int
  | Generated of { seed : int; n_tasks : int; n_edges : int; deadline : float }

type arch_spec = Platform of int | Hetero of string | Cosynth

type platform_spec = {
  arch : arch_spec;
  ambient : float;
  power_budget : float option;
  pins : (int * Constraints.pin) list;
  isolation : (int * int) list;
}

type spec = {
  name : string;
  graphs : graph_spec list;
  policies : Policy.t list;
  platforms : platform_spec list;
}

type cell = { graph : graph_spec; policy : Policy.t; platform : platform_spec }

type result = {
  makespan : float;
  total_power : float;
  max_temp : float;
  avg_temp : float;
  deadline : float;
  deadline_met : bool;
  within_budget : bool;
}

(* ------------------------------------------------------------------ *)
(* Labels *)

let graph_label = function
  | Bench i when i >= 0 && i < Array.length Benchmarks.descriptors ->
      Benchmarks.descriptors.(i).Benchmarks.bench_name
  | Bench i -> Printf.sprintf "bench%d" i
  | Generated { seed; n_tasks; _ } -> Printf.sprintf "gen%dx%d" seed n_tasks

let arch_label = function
  | Platform n -> Printf.sprintf "p%d" n
  | Hetero name -> name
  | Cosynth -> "cosynth"

let platform_label (p : platform_spec) =
  let base = Printf.sprintf "%s@%gC" (arch_label p.arch) p.ambient in
  let base =
    match p.power_budget with
    | None -> base
    | Some b -> Printf.sprintf "%s/b%g" base b
  in
  if p.pins = [] && p.isolation = [] then base
  else
    Printf.sprintf "%s/c%d.%d" base (List.length p.pins)
      (List.length p.isolation)

let cell_label (c : cell) =
  Printf.sprintf "%s/%s/%s" (graph_label c.graph) (Policy.name c.policy)
    (platform_label c.platform)

(* ------------------------------------------------------------------ *)
(* Canonical JSON codecs. Encoding fixes both the key order and the float
   spelling (Json.to_string prints shortest-round-trip forms), so every
   value has exactly one canonical byte string — the property the content
   addresses, artifact digests and manifest byte-comparisons stand on.
   Decoding reads through Json's field readers, so a bad member is
   reported as [field "k": ...], the wording tatsd uses. *)

let ( let* ) = Result.bind

let num f = Json.Num f
let int i = Json.Num (float_of_int i)

let graph_to_json = function
  | Bench i -> Json.Obj [ ("bench", int i) ]
  | Generated { seed; n_tasks; n_edges; deadline } ->
      Json.Obj
        [
          ("seed", int seed);
          ("n_tasks", int n_tasks);
          ("n_edges", int n_edges);
          ("deadline", num deadline);
        ]

let graph_of_json j =
  match Json.mem "bench" j with
  | Some _ ->
      let* i = Json.field "bench" Json.int ~what:"must be an integer" j in
      Ok (Bench i)
  | None ->
      let* seed = Json.field "seed" Json.int ~what:"must be an integer" j in
      let* n_tasks = Json.field "n_tasks" Json.int ~what:"must be an integer" j in
      let* n_edges = Json.field "n_edges" Json.int ~what:"must be an integer" j in
      let* deadline = Json.field "deadline" Json.num ~what:"must be a number" j in
      Ok (Generated { seed; n_tasks; n_edges; deadline })

(* The heterogeneity extensions (hetero arch, pins, isolation) are
   encoded only when present, so pre-extension platform specs keep their
   historical canonical bytes — and therefore their cell ids. Pins and
   isolation go through tatsd's codec: one format, one set of errors. *)
let platform_to_json (p : platform_spec) =
  let arch =
    match p.arch with
    | Platform n -> [ ("arch", Json.Str "platform"); ("n_pes", int n) ]
    | Hetero name -> [ ("arch", Json.Str "hetero"); ("platform", Json.Str name) ]
    | Cosynth -> [ ("arch", Json.Str "cosynth") ]
  in
  let budget =
    match p.power_budget with None -> [] | Some b -> [ ("power_budget", num b) ]
  in
  let constraints = { Constraints.pins = p.pins; isolation = p.isolation } in
  Json.Obj
    (arch @ [ ("ambient", num p.ambient) ] @ budget
    @ Protocol.constraints_to_json constraints)

let platform_of_json j =
  let* arch_name = Json.field "arch" Json.str ~what:"must be a string" j in
  let* arch =
    match arch_name with
    | "platform" ->
        let* n = Json.field "n_pes" Json.int ~what:"must be an integer" j in
        Ok (Platform n)
    | "hetero" ->
        let* name = Json.field "platform" Json.str ~what:"must be a string" j in
        Ok (Hetero name)
    | "cosynth" -> Ok Cosynth
    | s ->
        Json.field_error "arch" (Printf.sprintf "unknown arch %S (want platform|hetero|cosynth)" s)
  in
  let* ambient = Json.field "ambient" Json.num ~what:"must be a number" j in
  let* power_budget =
    Json.field ~default:None "power_budget"
      (fun v -> Option.map Option.some (Json.num v))
      ~what:"must be a number" j
  in
  let* { Constraints.pins; isolation } = Protocol.decode_constraints j in
  Ok { arch; ambient; power_budget; pins; isolation }

let policy_of_json key v =
  match Option.bind (Json.str v) Policy.of_name with
  | Some p -> Ok p
  | None -> Json.field_error key ("unknown policy " ^ Json.to_string v)

let cell_to_json (c : cell) =
  Json.Obj
    [
      ("graph", graph_to_json c.graph);
      ("policy", Json.Str (Policy.name c.policy));
      ("platform", platform_to_json c.platform);
    ]

let cell_of_json j =
  let* gj = Json.field "graph" Json.obj ~what:"must be an object" j in
  let* graph = graph_of_json gj in
  let* policy = policy_of_json "policy" (Option.value (Json.mem "policy" j) ~default:Json.Null) in
  let* fj = Json.field "platform" Json.obj ~what:"must be an object" j in
  let* platform = platform_of_json fj in
  Ok { graph; policy; platform }

let result_to_json (r : result) =
  Json.Obj
    [
      ("makespan", num r.makespan);
      ("total_power", num r.total_power);
      ("max_temp", num r.max_temp);
      ("avg_temp", num r.avg_temp);
      ("deadline", num r.deadline);
      ("deadline_met", Json.Bool r.deadline_met);
      ("within_budget", Json.Bool r.within_budget);
    ]

let result_of_json j =
  let* makespan = Json.field "makespan" Json.num ~what:"must be a number" j in
  let* total_power = Json.field "total_power" Json.num ~what:"must be a number" j in
  let* max_temp = Json.field "max_temp" Json.num ~what:"must be a number" j in
  let* avg_temp = Json.field "avg_temp" Json.num ~what:"must be a number" j in
  let* deadline = Json.field "deadline" Json.num ~what:"must be a number" j in
  let* deadline_met = Json.field "deadline_met" Json.bool ~what:"must be a boolean" j in
  let* within_budget = Json.field "within_budget" Json.bool ~what:"must be a boolean" j in
  Ok
    {
      makespan;
      total_power;
      max_temp;
      avg_temp;
      deadline;
      deadline_met;
      within_budget;
    }

let spec_to_json (s : spec) =
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("graphs", Json.Arr (List.map graph_to_json s.graphs));
      ( "policies",
        Json.Arr (List.map (fun p -> Json.Str (Policy.name p)) s.policies) );
      ("platforms", Json.Arr (List.map platform_to_json s.platforms));
    ]

let spec_to_string s = Json.to_string (spec_to_json s)
let digest_hex s = Digest.to_hex (Digest.string s)
let cell_id c = digest_hex (Json.to_string (cell_to_json c))
let spec_digest_of s = digest_hex (spec_to_string s)

(* ------------------------------------------------------------------ *)
(* Expansion *)

let validate_graph = function
  | Bench i when i < 0 || i >= Array.length Benchmarks.descriptors ->
      Error (Printf.sprintf "benchmark index %d out of range" i)
  | Bench _ -> Ok ()
  | Generated { n_tasks; _ } when n_tasks < 1 -> Error "generated graph needs tasks"
  | Generated { n_tasks; n_edges; deadline; _ } ->
      let lo, hi = Generator.feasible_edges ~n_tasks in
      if n_edges < lo || n_edges > hi then
        Error (Printf.sprintf "%d edges outside feasible [%d, %d]" n_edges lo hi)
      else if (not (Float.is_finite deadline)) || deadline <= 0.0 then
        Error "generated graph needs a positive deadline"
      else Ok ()

let validate_platform (p : platform_spec) =
  let* () =
    match p.arch with
    | Platform n when n < 1 -> Error "platform needs at least one PE"
    | Hetero name -> Result.map ignore (Catalog.platform_of_name name)
    | Cosynth when p.pins <> [] || p.isolation <> [] ->
        Error "pins/isolation require the platform or hetero architecture"
    | Platform _ | Cosynth -> Ok ()
  in
  if not (Float.is_finite p.ambient) then Error "ambient must be finite"
  else
    match p.power_budget with
    | Some b when (not (Float.is_finite b)) || b <= 0.0 ->
        Error "power budget must be positive"
    | _ -> Ok ()

let rec all_ok validate = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = validate x in
      all_ok validate rest

(* Everything [expand] rejects, as an [Error]: [spec_of_string] reports
   it for a spec file, [expand] raises it for a spec built in code. *)
let cells_of (s : spec) =
  let* () =
    if s.graphs = [] || s.policies = [] || s.platforms = [] then
      Error "every axis needs at least one point"
    else Ok ()
  in
  let* () = all_ok validate_graph s.graphs in
  let* () = all_ok validate_platform s.platforms in
  let cells =
    List.concat_map
      (fun graph ->
        List.concat_map
          (fun policy ->
            List.map (fun platform -> { graph; policy; platform }) s.platforms)
          s.policies)
      s.graphs
  in
  let seen = Hashtbl.create (2 * List.length cells) in
  let* () =
    all_ok
      (fun c ->
        let id = cell_id c in
        if Hashtbl.mem seen id then
          Error (Printf.sprintf "duplicate cell %s" (cell_label c))
        else Ok (Hashtbl.add seen id ()))
      cells
  in
  Ok cells

let expand s =
  match cells_of s with
  | Ok cells -> cells
  | Error msg -> invalid_arg ("Campaign.expand: " ^ msg)

let spec_of_string text =
  let* j = Json.of_string text in
  let* name = Json.field "name" Json.str ~what:"must be a string" j in
  let* graphs = Json.array "graphs" graph_of_json ~what:"must be an array of graphs" j in
  let* policies =
    Json.array "policies" (policy_of_json "policies") ~what:"must be an array of policy names" j
  in
  let* platforms = Json.array "platforms" platform_of_json ~what:"must be an array of platforms" j in
  let spec = { name; graphs; policies; platforms } in
  let* _ = cells_of spec in
  Ok spec

let n_cells (s : spec) =
  List.length s.graphs * List.length s.policies * List.length s.platforms

(* ------------------------------------------------------------------ *)
(* Builtin specs *)

let table_graphs = [ Bench 0; Bench 1; Bench 2; Bench 3 ]

let plat n_pes ambient =
  {
    arch = Platform n_pes;
    ambient;
    power_budget = None;
    pins = [];
    isolation = [];
  }

let cosy ambient =
  { arch = Cosynth; ambient; power_budget = None; pins = []; isolation = [] }

let het ?(pins = []) ?(isolation = []) name ambient =
  { arch = Hetero name; ambient; power_budget = None; pins; isolation }

let builtin = function
  | "table1" ->
      (* Table 1: baseline + the three power heuristics on both flows. *)
      Some
        {
          name = "table1";
          graphs = table_graphs;
          policies =
            [
              Policy.Baseline;
              Policy.Power_aware Policy.Min_task_power;
              Policy.Power_aware Policy.Min_pe_average_power;
              Policy.Power_aware Policy.Min_task_energy;
            ];
          platforms = [ cosy 45.0; plat 4 45.0 ];
        }
  | "table2" ->
      Some
        {
          name = "table2";
          graphs = table_graphs;
          policies =
            [ Policy.Power_aware Policy.Min_task_energy; Policy.Thermal_aware ];
          platforms = [ cosy 45.0 ];
        }
  | "table3" ->
      Some
        {
          name = "table3";
          graphs = table_graphs;
          policies =
            [ Policy.Power_aware Policy.Min_task_energy; Policy.Thermal_aware ];
          platforms = [ plat 4 45.0 ];
        }
  | "hetero" ->
      (* The heterogeneity gate fixture: a homogeneous control cell, its
         degenerate typed twin (std4 must reproduce p4's numbers), both
         mixed builtins, and one constrained cell exercising kind pins
         plus two criticality classes. *)
      Some
        {
          name = "hetero";
          graphs = [ Bench 0; Bench 2 ];
          policies = [ Policy.Baseline; Policy.Thermal_aware ];
          platforms =
            [
              plat 4 45.0;
              het "std4" 45.0;
              het "biglittle4" 45.0;
              het "mixed6" 45.0
                ~pins:[ (0, Constraints.To_kind 0) ]
                ~isolation:[ (1, 0); (2, 1) ];
            ];
        }
  | "golden" ->
      (* Small and mixed on purpose: one paper benchmark, one generated
         DAG, both platform ambients, one budget-annotated point — the
         golden pins the whole report rendering path. *)
      Some
        {
          name = "golden";
          graphs =
            [
              Bench 0;
              Generated { seed = 11; n_tasks = 30; n_edges = 45; deadline = 1200.0 };
            ];
          policies =
            [
              Policy.Baseline;
              Policy.Power_aware Policy.Min_task_energy;
              Policy.Thermal_aware;
            ];
          platforms =
            [
              plat 4 45.0;
              {
                arch = Platform 4;
                ambient = 55.0;
                power_budget = Some 21.0;
                pins = [];
                isolation = [];
              };
            ];
        }
  | "sweep1k" ->
      (* 18 graphs x 5 policies x 12 platform points = 1080 cells — the
         bench phase's >= 1000-cell scale workload. *)
      Some
        {
          name = "sweep1k";
          graphs =
            List.init 18 (fun i ->
                Generated
                  { seed = 100 + i; n_tasks = 16; n_edges = 24; deadline = 800.0 });
          policies = Policy.all;
          platforms =
            List.concat_map
              (fun n_pes ->
                List.map (fun ambient -> plat n_pes ambient)
                  [ 35.0; 45.0; 55.0; 65.0 ])
              [ 2; 4; 6 ];
        }
  | _ -> None

let builtin_names = [ "table1"; "table2"; "table3"; "golden"; "hetero"; "sweep1k" ]

(* ------------------------------------------------------------------ *)
(* Cell execution *)

let graph_of_spec g =
  match g with
  | Bench i -> Benchmarks.load i
  | Generated { seed; n_tasks; n_edges; deadline } ->
      let gspec =
        { (Generator.scaled_spec ~n_tasks) with Generator.n_edges; deadline }
      in
      Generator.generate ~seed ~name:(graph_label g) gspec

let run_cell (c : cell) : result =
  Trace.with_span "campaign.cell" @@ fun () ->
  let graph = graph_of_spec c.graph in
  let package = { Package.default with Package.ambient = c.platform.ambient } in
  let constraints =
    { Constraints.pins = c.platform.pins; isolation = c.platform.isolation }
  in
  let fixed platform =
    Flow.run_platform ~platform ~constraints ~package ~graph
      ~lib:(Catalog.library_for platform) ~policy:c.policy ()
  in
  let outcome =
    match c.platform.arch with
    | Platform n_pes -> fixed (Catalog.std_platform n_pes)
    | Hetero name ->
        (* expand validated the name against the catalog already. *)
        fixed (Option.get (Catalog.platform_named name))
    | Cosynth ->
        Flow.run_cosynthesis ~package ~graph ~lib:(Catalog.default_library ())
          ~policy:c.policy ()
  in
  let makespan = outcome.Flow.schedule.Schedule.makespan in
  let total_power = outcome.Flow.row.Metrics.total_power in
  let deadline = Graph.deadline graph in
  {
    makespan;
    total_power;
    max_temp = outcome.Flow.row.Metrics.max_temp;
    avg_temp = outcome.Flow.row.Metrics.avg_temp;
    deadline;
    deadline_met = makespan <= deadline;
    within_budget =
      (match c.platform.power_budget with
      | None -> true
      | Some b -> total_power <= b);
  }

(* ------------------------------------------------------------------ *)
(* Artifacts *)

let cells_dir dir = Filename.concat dir "cells"
let artifact_path dir id = Filename.concat (cells_dir dir) (id ^ ".json")
let manifest_path dir = Filename.concat dir "manifest.json"

(* The digest field covers the canonical encoding of everything before it,
   recomputed from the *decoded* values on load — so a flipped byte
   anywhere (id, spelling of a float, a truncated tail) fails validation
   and the cell is recomputed rather than trusted. *)
let artifact_fields ~campaign (c : cell) (r : result) =
  [
    ("id", Json.Str (cell_id c));
    ("campaign", Json.Str campaign);
    ("cell", cell_to_json c);
    ("result", result_to_json r);
  ]

let artifact_string ~campaign c r =
  let fields = artifact_fields ~campaign c r in
  let digest = digest_hex (Json.to_string (Json.Obj fields)) in
  Json.to_string (Json.Obj (fields @ [ ("digest", Json.Str digest) ]))

let decode_artifact text =
  let* j = Json.of_string text in
  let* id = Json.field "id" Json.str ~what:"must be a string" j in
  let* campaign = Json.field "campaign" Json.str ~what:"must be a string" j in
  let* cj = Json.field "cell" Json.obj ~what:"must be an object" j in
  let* c = cell_of_json cj in
  let* rj = Json.field "result" Json.obj ~what:"must be an object" j in
  let* r = result_of_json rj in
  let* digest = Json.field "digest" Json.str ~what:"must be a string" j in
  let canonical = Json.to_string (Json.Obj (artifact_fields ~campaign c r)) in
  if digest <> digest_hex canonical then Error "artifact digest mismatch"
  else if id <> cell_id c then Error "artifact id does not address its cell"
  else Ok (campaign, c, r)

let artifact_status ~campaign (c : cell) path =
  match Fsio.read_file path with
  | None -> `Missing
  | Some bytes -> (
      match decode_artifact bytes with
      | Ok (camp, c2, _) when camp = campaign && cell_id c2 = cell_id c -> `Valid
      | Ok _ | Error _ -> `Corrupt)

(* ------------------------------------------------------------------ *)
(* Manifest *)

type entry = {
  index : int;
  id : string;
  artifact_digest : string;
  cell : cell;
  result : result;
}

type manifest = { campaign : string; spec_digest : string; entries : entry list }

let entry_to_json (e : entry) =
  Json.Obj
    [
      ("index", int e.index);
      ("id", Json.Str e.id);
      ("artifact_digest", Json.Str e.artifact_digest);
      ("cell", cell_to_json e.cell);
      ("result", result_to_json e.result);
    ]

let entry_of_json j =
  let* index = Json.field "index" Json.int ~what:"must be an integer" j in
  let* id = Json.field "id" Json.str ~what:"must be a string" j in
  let* artifact_digest = Json.field "artifact_digest" Json.str ~what:"must be a string" j in
  let* cj = Json.field "cell" Json.obj ~what:"must be an object" j in
  let* cell = cell_of_json cj in
  let* rj = Json.field "result" Json.obj ~what:"must be an object" j in
  let* result = result_of_json rj in
  Ok { index; id; artifact_digest; cell; result }

let manifest_to_string (m : manifest) =
  Json.to_string
    (Json.Obj
       [
         ("campaign", Json.Str m.campaign);
         ("spec_digest", Json.Str m.spec_digest);
         ("n_cells", int (List.length m.entries));
         ("cells", Json.Arr (List.map entry_to_json m.entries));
       ])

let manifest_of_string text =
  let* j = Json.of_string text in
  let* campaign = Json.field "campaign" Json.str ~what:"must be a string" j in
  let* spec_digest = Json.field "spec_digest" Json.str ~what:"must be a string" j in
  let* n = Json.field "n_cells" Json.int ~what:"must be an integer" j in
  let* entries = Json.array "cells" entry_of_json ~what:"must be an array of entries" j in
  if List.length entries <> n then Error "n_cells disagrees with the cells array"
  else Ok { campaign; spec_digest; entries }

let load_manifest ~dir =
  match Fsio.read_file (manifest_path dir) with
  | None -> Error (Printf.sprintf "no manifest in %s (campaign incomplete?)" dir)
  | Some bytes -> manifest_of_string bytes

(* Only a complete, fully-valid artifact store yields a manifest: partial
   stores (other shards still running, interrupted campaigns) stay
   manifest-less until the last cell lands. *)
let build_manifest ~dir (s : spec) cells =
  let entries =
    List.mapi
      (fun index cell ->
        let id = cell_id cell in
        match Fsio.read_file (artifact_path dir id) with
        | None -> None
        | Some bytes -> (
            match decode_artifact bytes with
            | Ok (campaign, c, result) when campaign = s.name && cell_id c = id
              ->
                Some
                  {
                    index;
                    id;
                    artifact_digest = digest_hex bytes;
                    cell;
                    result;
                  }
            | Ok _ | Error _ -> None))
      cells
  in
  if List.for_all Option.is_some entries then
    Some
      {
        campaign = s.name;
        spec_digest = spec_digest_of s;
        entries = List.filter_map Fun.id entries;
      }
  else None

(* ------------------------------------------------------------------ *)
(* Running campaigns *)

type run_report = {
  total : int;
  shard_cells : int;
  computed : int;
  reused : int;
  invalid : int;
  manifest_written : bool;
}

let run ?pool ?(shards = 1) ?(shard = 0) ~dir (s : spec) =
  if shards < 1 then invalid_arg "Campaign.run: shards must be >= 1";
  if shard < 0 || shard >= shards then
    invalid_arg "Campaign.run: shard must be in [0, shards)";
  Trace.with_span "campaign.run" @@ fun () ->
  let cells = expand s in
  let total = List.length cells in
  Fsio.mkdir_p (cells_dir dir);
  let mine = List.filteri (fun i _ -> i mod shards = shard) cells in
  let reused = ref 0 and invalid = ref 0 in
  let todo =
    List.filter
      (fun c ->
        match artifact_status ~campaign:s.name c (artifact_path dir (cell_id c)) with
        | `Valid ->
            incr reused;
            false
        | `Missing -> true
        | `Corrupt ->
            incr invalid;
            true)
      mine
  in
  let compute c =
    let r = run_cell c in
    Fsio.write_atomic (artifact_path dir (cell_id c))
      (artifact_string ~campaign:s.name c r)
  in
  let todo = Array.of_list todo in
  (match pool with
  | Some pool -> ignore (Pool.parallel_map pool compute todo : unit array)
  | None -> Array.iter compute todo);
  Metricsreg.add (Metricsreg.counter "campaign.cells_computed") (Array.length todo);
  Metricsreg.add (Metricsreg.counter "campaign.cells_reused") !reused;
  Metricsreg.add (Metricsreg.counter "campaign.artifacts_invalid") !invalid;
  let manifest_written =
    match build_manifest ~dir s cells with
    | None -> false
    | Some m ->
        Trace.with_span "campaign.manifest" (fun () ->
            Fsio.write_atomic (manifest_path dir) (manifest_to_string m));
        Metricsreg.incr (Metricsreg.counter "campaign.manifests_written");
        true
  in
  {
    total;
    shard_cells = List.length mine;
    computed = Array.length todo;
    reused = !reused;
    invalid = !invalid;
    manifest_written;
  }

(* ------------------------------------------------------------------ *)
(* Gating *)

type tolerances = {
  tol_makespan : float;
  tol_power : float;
  tol_max_temp : float;
  tol_avg_temp : float;
}

let zero_tolerance =
  { tol_makespan = 0.0; tol_power = 0.0; tol_max_temp = 0.0; tol_avg_temp = 0.0 }

type finding = {
  g_cell : string;
  g_metric : string;
  g_base : float;
  g_cand : float;
  g_tol : float;
}

type gate_report = {
  compared : int;
  clean : int;
  drifted : finding list;
  regressed : finding list;
  missing : string list;
  extra : string list;
}

let metric_checks (t : tolerances) =
  [
    ("makespan", (fun (r : result) -> r.makespan), t.tol_makespan);
    ("total_power", (fun (r : result) -> r.total_power), t.tol_power);
    ("max_temp", (fun (r : result) -> r.max_temp), t.tol_max_temp);
    ("avg_temp", (fun (r : result) -> r.avg_temp), t.tol_avg_temp);
  ]

let gate ~tol ~(baseline : manifest) ~(candidate : manifest) =
  let cand = Hashtbl.create (2 * List.length candidate.entries) in
  List.iter (fun (e : entry) -> Hashtbl.replace cand e.id e) candidate.entries;
  let base_ids = Hashtbl.create (2 * List.length baseline.entries) in
  List.iter
    (fun (e : entry) -> Hashtbl.replace base_ids e.id ())
    baseline.entries;
  let compared = ref 0 and clean = ref 0 in
  let drifted = ref [] and regressed = ref [] and missing = ref [] in
  List.iter
    (fun (b : entry) ->
      match Hashtbl.find_opt cand b.id with
      | None -> missing := cell_label b.cell :: !missing
      | Some c ->
          incr compared;
          let worse = ref false in
          List.iter
            (fun (metric, get, m_tol) ->
              let delta = get c.result -. get b.result in
              if delta > 0.0 then begin
                worse := true;
                let f =
                  {
                    g_cell = cell_label b.cell;
                    g_metric = metric;
                    g_base = get b.result;
                    g_cand = get c.result;
                    g_tol = m_tol;
                  }
                in
                if delta > m_tol then regressed := f :: !regressed
                else drifted := f :: !drifted
              end)
            (metric_checks tol);
          if not !worse then incr clean)
    baseline.entries;
  let extra =
    List.filter_map
      (fun (e : entry) ->
        if Hashtbl.mem base_ids e.id then None else Some (cell_label e.cell))
      candidate.entries
  in
  {
    compared = !compared;
    clean = !clean;
    drifted = List.rev !drifted;
    regressed = List.rev !regressed;
    missing = List.rev !missing;
    extra;
  }

let gate_passes (r : gate_report) = r.regressed = [] && r.missing = []

(* ------------------------------------------------------------------ *)
(* Summaries *)

type summary = { campaign_name : string; cells : (cell * result) list }

let summarize (m : manifest) =
  {
    campaign_name = m.campaign;
    cells = List.map (fun (e : entry) -> (e.cell, e.result)) m.entries;
  }

let collect (s : spec) =
  Trace.with_span "campaign.collect" @@ fun () ->
  { campaign_name = s.name; cells = List.map (fun c -> (c, run_cell c)) (expand s) }
