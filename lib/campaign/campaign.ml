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
   addresses, artifact digests and manifest byte-comparisons stand on. *)

let ( let* ) = Result.bind

let obj_field key j =
  match Json.mem key j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing key %S" key)

let num_field key j =
  let* v = obj_field key j in
  match Json.num v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%S: expected a number" key)

let int_field key j =
  let* f = num_field key j in
  let i = int_of_float f in
  if float_of_int i = f then Ok i
  else Error (Printf.sprintf "%S: expected an integer" key)

let str_field key j =
  let* v = obj_field key j in
  match Json.str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "%S: expected a string" key)

let bool_field key j =
  let* v = obj_field key j in
  match Json.bool v with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "%S: expected a boolean" key)

let arr_field key decode j =
  let* v = obj_field key j in
  match Json.arr v with
  | None -> Error (Printf.sprintf "%S: expected an array" key)
  | Some items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest ->
            let* d = decode x in
            go (d :: acc) rest
      in
      go [] items

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
      let* i = int_field "bench" j in
      Ok (Bench i)
  | None ->
      let* seed = int_field "seed" j in
      let* n_tasks = int_field "n_tasks" j in
      let* n_edges = int_field "n_edges" j in
      let* deadline = num_field "deadline" j in
      Ok (Generated { seed; n_tasks; n_edges; deadline })

(* The heterogeneity extensions (hetero arch, pins, isolation) are
   encoded only when present, so pre-extension platform specs keep their
   historical canonical bytes — and therefore their cell ids. *)
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
  let pins =
    match p.pins with
    | [] -> []
    | pins ->
        [
          ( "pins",
            Json.Arr
              (List.map
                 (fun (t, pin) ->
                   match pin with
                   | Constraints.To_pe pe ->
                       Json.Obj [ ("task", int t); ("pe", int pe) ]
                   | Constraints.To_kind k ->
                       Json.Obj [ ("task", int t); ("kind", int k) ])
                 pins) );
        ]
  in
  let isolation =
    match p.isolation with
    | [] -> []
    | iso ->
        [
          ( "isolation",
            Json.Arr
              (List.map
                 (fun (t, c) -> Json.Obj [ ("task", int t); ("class", int c) ])
                 iso) );
        ]
  in
  Json.Obj (arch @ [ ("ambient", num p.ambient) ] @ budget @ pins @ isolation)

let platform_of_json j =
  let* arch_name = str_field "arch" j in
  let* arch =
    match arch_name with
    | "platform" ->
        let* n = int_field "n_pes" j in
        Ok (Platform n)
    | "hetero" ->
        let* name = str_field "platform" j in
        Ok (Hetero name)
    | "cosynth" -> Ok Cosynth
    | s -> Error (Printf.sprintf "unknown arch %S" s)
  in
  let* ambient = num_field "ambient" j in
  let* power_budget =
    match Json.mem "power_budget" j with
    | None -> Ok None
    | Some v -> (
        match Json.num v with
        | Some b -> Ok (Some b)
        | None -> Error "\"power_budget\": expected a number")
  in
  let* pins =
    match Json.mem "pins" j with
    | None -> Ok []
    | Some _ ->
        arr_field "pins"
          (fun item ->
            let* t = int_field "task" item in
            match (Json.mem "pe" item, Json.mem "kind" item) with
            | Some _, None ->
                let* pe = int_field "pe" item in
                Ok (t, Constraints.To_pe pe)
            | None, Some _ ->
                let* k = int_field "kind" item in
                Ok (t, Constraints.To_kind k)
            | _ -> Error "pin wants exactly one of \"pe\" or \"kind\"")
          j
  in
  let* isolation =
    match Json.mem "isolation" j with
    | None -> Ok []
    | Some _ ->
        arr_field "isolation"
          (fun item ->
            let* t = int_field "task" item in
            let* c = int_field "class" item in
            Ok (t, c))
          j
  in
  Ok { arch; ambient; power_budget; pins; isolation }

let policy_of_json j =
  match Json.str j with
  | None -> Error "policy: expected a string"
  | Some s -> (
      match Policy.of_name s with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "unknown policy %S" s))

let cell_to_json (c : cell) =
  Json.Obj
    [
      ("graph", graph_to_json c.graph);
      ("policy", Json.Str (Policy.name c.policy));
      ("platform", platform_to_json c.platform);
    ]

let cell_of_json j =
  let* gj = obj_field "graph" j in
  let* graph = graph_of_json gj in
  let* pj = obj_field "policy" j in
  let* policy = policy_of_json pj in
  let* fj = obj_field "platform" j in
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
  let* makespan = num_field "makespan" j in
  let* total_power = num_field "total_power" j in
  let* max_temp = num_field "max_temp" j in
  let* avg_temp = num_field "avg_temp" j in
  let* deadline = num_field "deadline" j in
  let* deadline_met = bool_field "deadline_met" j in
  let* within_budget = bool_field "within_budget" j in
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

let spec_of_string text =
  let* j = Json.of_string text in
  let* name = str_field "name" j in
  let* graphs = arr_field "graphs" graph_of_json j in
  let* policies = arr_field "policies" policy_of_json j in
  let* platforms = arr_field "platforms" platform_of_json j in
  Ok { name; graphs; policies; platforms }

let digest_hex s = Digest.to_hex (Digest.string s)
let cell_id c = digest_hex (Json.to_string (cell_to_json c))
let spec_digest_of s = digest_hex (spec_to_string s)

(* ------------------------------------------------------------------ *)
(* Expansion *)

let validate_graph g =
  match g with
  | Bench i ->
      if i < 0 || i >= Array.length Benchmarks.descriptors then
        invalid_arg (Printf.sprintf "Campaign: benchmark index %d out of range" i)
  | Generated { n_tasks; n_edges; deadline; _ } ->
      if n_tasks < 1 then invalid_arg "Campaign: generated graph needs tasks";
      let lo, hi = Generator.feasible_edges ~n_tasks in
      if n_edges < lo || n_edges > hi then
        invalid_arg
          (Printf.sprintf "Campaign: %d edges outside feasible [%d, %d]" n_edges
             lo hi);
      if not (Float.is_finite deadline) || deadline <= 0.0 then
        invalid_arg "Campaign: generated graph needs a positive deadline"

let validate_platform (p : platform_spec) =
  (match p.arch with
  | Platform n ->
      if n < 1 then invalid_arg "Campaign: platform needs at least one PE"
  | Hetero name ->
      if Option.is_none (Catalog.platform_named name) then
        invalid_arg
          (Printf.sprintf "Campaign: unknown platform %S (want one of %s)" name
             (String.concat ", " (Catalog.platform_names ())))
  | Cosynth -> ());
  (match p.arch with
  | Cosynth when p.pins <> [] || p.isolation <> [] ->
      invalid_arg
        "Campaign: pins/isolation require the platform or hetero architecture"
  | _ -> ());
  if not (Float.is_finite p.ambient) then
    invalid_arg "Campaign: ambient must be finite";
  match p.power_budget with
  | Some b when (not (Float.is_finite b)) || b <= 0.0 ->
      invalid_arg "Campaign: power budget must be positive"
  | _ -> ()

let expand (s : spec) =
  if s.graphs = [] || s.policies = [] || s.platforms = [] then
    invalid_arg "Campaign.expand: every axis needs at least one point";
  List.iter validate_graph s.graphs;
  List.iter validate_platform s.platforms;
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
  List.iter
    (fun c ->
      let id = cell_id c in
      if Hashtbl.mem seen id then
        invalid_arg
          (Printf.sprintf "Campaign.expand: duplicate cell %s" (cell_label c));
      Hashtbl.add seen id ())
    cells;
  cells

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
  let* id = str_field "id" j in
  let* campaign = str_field "campaign" j in
  let* cj = obj_field "cell" j in
  let* c = cell_of_json cj in
  let* rj = obj_field "result" j in
  let* r = result_of_json rj in
  let* digest = str_field "digest" j in
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
  let* index = int_field "index" j in
  let* id = str_field "id" j in
  let* artifact_digest = str_field "artifact_digest" j in
  let* cj = obj_field "cell" j in
  let* cell = cell_of_json cj in
  let* rj = obj_field "result" j in
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
  let* campaign = str_field "campaign" j in
  let* spec_digest = str_field "spec_digest" j in
  let* n = int_field "n_cells" j in
  let* entries = arr_field "cells" entry_of_json j in
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
