(** Sharded, resumable experiment campaigns with regression gating.

    A campaign is the cartesian product of three axes — task graphs
    (paper benchmarks or TGFF-style generated DAGs, up to thousands of
    nodes), scheduling policies, and platforms (architecture x ambient x
    power budget) — expanded into a deterministic, duplicate-free list of
    {e cells}. Each cell runs the canonical {!Tats_cosynth.Flow} once and
    persists one JSON artifact named by the MD5 of the cell's canonical
    spec encoding, so the artifact store is content-addressed: the same
    cell always lands in the same file with the same bytes, regardless of
    pool size, shard assignment, or how many times the campaign was
    interrupted and resumed.

    {b Resume semantics.} {!run} skips cells whose artifact already
    exists and validates (embedded digest and id both check out);
    missing, truncated or corrupted artifacts are recomputed, never
    trusted. Artifacts are written atomically as each cell finishes, so a
    killed campaign loses at most in-flight cells. When every cell of the
    full expansion is present and valid, {!run} writes [manifest.json] —
    a canonical summary whose bytes depend only on the spec and the cell
    results, which is what "resume is bit-identical to an uninterrupted
    run" means operationally (and what the crash/resume differential test
    checks file by file).

    {b Sharding.} [run ~shards:n ~shard:k] computes only cells whose
    expansion index is [k mod n]; shards share nothing but the artifact
    directory. The last shard to observe a complete store writes the
    manifest; concurrent writers are benign because the bytes agree.

    {b Gating.} {!gate} diffs a candidate manifest against a stored
    baseline, cell by cell (matched on content address): any
    higher-is-worse metric above its per-metric tolerance is a
    regression, and regressions or baseline cells missing from the
    candidate fail the gate — the CLI maps that to exit 2. *)

module Policy = Tats_sched.Policy
module Constraints = Tats_sched.Constraints

(** {1 Campaign specs} *)

type graph_spec =
  | Bench of int  (** index into {!Tats_taskgraph.Benchmarks.descriptors} *)
  | Generated of { seed : int; n_tasks : int; n_edges : int; deadline : float }
      (** {!Tats_taskgraph.Generator} DAG; data range and task types come
          from {!Tats_taskgraph.Generator.scaled_spec}-compatible
          defaults, so generated graphs schedule against the stock
          libraries. *)

type arch_spec =
  | Platform of int  (** Figure 1(b) fixed architecture with [n] PEs *)
  | Hetero of string
      (** a typed, possibly heterogeneous builtin platform by name
          ({!Tats_techlib.Catalog.platform_named}); scheduled with
          {!Tats_techlib.Catalog.library_for}'s per-kind WCET columns *)
  | Cosynth  (** Figure 1(a) co-synthesis from the heterogeneous catalogue *)

type platform_spec = {
  arch : arch_spec;
  ambient : float;  (** °C, threaded through {!Tats_thermal.Package} *)
  power_budget : float option;
      (** W; when set, the cell result records whether total power stayed
          within it ([within_budget]) — an evaluation annotation, not a
          scheduling constraint *)
  pins : (int * Constraints.pin) list;
      (** task affinities, forwarded to the scheduler; [Platform]/[Hetero]
          architectures only *)
  isolation : (int * int) list;
      (** task -> criticality class; classes never share a PE *)
}

type spec = {
  name : string;
  graphs : graph_spec list;
  policies : Policy.t list;
  platforms : platform_spec list;
}

type cell = { graph : graph_spec; policy : Policy.t; platform : platform_spec }

val expand : spec -> cell list
(** The full cartesian product in a pinned order: graphs outermost,
    platforms innermost. Raises [Invalid_argument] on an invalid spec —
    an empty axis, an out-of-range benchmark index, an infeasible
    generated-graph spec, an unknown builtin platform, pins or isolation
    on the cosynth architecture, a non-finite ambient, a non-positive
    power budget, or duplicate cells. {!spec_of_string} reports the same
    problems as an [Error]. Whether pins and classes fit the platform is
    checked when a cell runs ({!Tats_sched.Constraints.Invalid}). *)

val n_cells : spec -> int
(** [List.length (expand spec)] without validating. *)

val cell_id : cell -> string
(** Content address: the MD5 hex digest of the cell's canonical JSON
    encoding. Two cells share an id iff they are the same point of the
    product space. *)

val graph_label : graph_spec -> string
(** ["Bm1"] / ["gen11x30"] — stable human-readable name. *)

val platform_label : platform_spec -> string
(** ["p4@45C"] / ["biglittle4@45C"] / ["cosynth@45C"], with ["/b<watts>"]
    appended when a power budget is set and ["/c<pins>.<classes>"] when
    constraints are. *)

val cell_label : cell -> string
(** [<graph>/<policy>/<platform>], e.g. ["Bm1/thermal/p4@45C"] — the
    name used in reports and gate findings. *)

(** {1 Spec serialization and builtins} *)

val spec_to_string : spec -> string
(** Canonical one-line JSON encoding — the on-disk spec-file format, and
    the preimage of the manifest's [spec_digest]. *)

val spec_of_string : string -> (spec, string) result
(** Inverse of {!spec_to_string}; also accepts hand-written spec files
    (missing [power_budget] means none). A platform's ["pins"] and
    ["isolation"] members follow tatsd's grammar and go through its
    decoder ({!Tats_serve.Protocol.decode_constraints}), so a malformed
    one gets the same message there and here. Every shape error reads
    [field "k": <what>], as on the wire; a well-formed spec that
    {!expand} would reject is an [Error] too. *)

val builtin : string -> spec option
(** Pinned specs: ["table1"]/["table2"]/["table3"] are the paper's
    Tables 1–3 as campaigns, the one definition of their cells
    ({!Core.Experiments.tables} runs them); ["golden"] is the small mixed
    platform/ambient/budget campaign pinned by
    [test/goldens/campaign.golden]; ["hetero"] is the heterogeneity gate
    fixture (homogeneous control, degenerate [std4] twin, both mixed
    builtins, one pinned-and-isolated cell); ["sweep1k"] is a 1080-cell
    generated sweep (18 seeded 16-task DAGs x all 5 policies x 12
    platform points) — the bench phase's scale workload. *)

val builtin_names : string list

(** {1 Running cells} *)

type result = {
  makespan : float;
  total_power : float;  (** W — the paper's Total Pow column *)
  max_temp : float;  (** °C *)
  avg_temp : float;  (** °C *)
  deadline : float;
  deadline_met : bool;
  within_budget : bool;  (** true when no budget is set *)
}

val run_cell : cell -> result
(** Execute one cell through the canonical flow ({!Tats_cosynth.Flow},
    stock libraries, ambient from the platform spec). Pure given the
    cell: bit-identical floats on every call, which is what makes the
    artifact store content-stable. *)

type run_report = {
  total : int;  (** cells in the full expansion *)
  shard_cells : int;  (** cells this shard is responsible for *)
  computed : int;  (** cells actually executed (fresh + recovered) *)
  reused : int;  (** valid artifacts skipped *)
  invalid : int;  (** corrupt/truncated artifacts detected and re-run *)
  manifest_written : bool;
}

val run :
  ?pool:Tats_util.Pool.t ->
  ?shards:int ->
  ?shard:int ->
  dir:string ->
  spec ->
  run_report
(** Run (or resume — same code path) a campaign shard into [dir].
    Artifacts land in [dir/cells/<id>.json] as each cell finishes;
    missing cells of this shard are executed on [pool] when given
    (deterministically — results do not depend on jobs count), inline
    otherwise. Raises [Invalid_argument] when [shard]/[shards] are out
    of range (shards >= 1, 0 <= shard < shards) or the spec is invalid. *)

(** {1 Artifacts and manifests} *)

val artifact_path : string -> string -> string
(** [artifact_path dir id] — where cell [id]'s artifact lives. *)

val manifest_path : string -> string

type entry = {
  index : int;  (** position in the expansion order *)
  id : string;
  artifact_digest : string;  (** MD5 hex of the artifact file's bytes *)
  cell : cell;
  result : result;
}

type manifest = {
  campaign : string;
  spec_digest : string;
  entries : entry list;  (** in expansion order *)
}

val manifest_to_string : manifest -> string
(** Canonical one-line JSON — the exact bytes {!run} persists, so two
    manifests compare equal iff their files are byte-identical. *)

val manifest_of_string : string -> (manifest, string) Stdlib.result

val load_manifest : dir:string -> (manifest, string) Stdlib.result
(** Read and decode [dir]'s manifest; [Error] when the campaign has not
    completed (no manifest yet) or the file does not parse. *)

(** {1 Regression gating} *)

type tolerances = {
  tol_makespan : float;
  tol_power : float;
  tol_max_temp : float;
  tol_avg_temp : float;
}

val zero_tolerance : tolerances

type finding = {
  g_cell : string;  (** {!cell_label} of the offending cell *)
  g_metric : string;
  g_base : float;
  g_cand : float;
  g_tol : float;
}

type gate_report = {
  compared : int;  (** baseline cells matched in the candidate *)
  clean : int;  (** matched cells with no metric above baseline *)
  drifted : finding list;  (** worse, but within tolerance *)
  regressed : finding list;  (** worse beyond tolerance *)
  missing : string list;  (** baseline cells absent from the candidate *)
  extra : string list;  (** candidate cells absent from the baseline *)
}

val gate : tol:tolerances -> baseline:manifest -> candidate:manifest -> gate_report
(** Match cells by content address; for each of the four metrics (all
    higher-is-worse), [cand - base > tol] is a regression and
    [0 < cand - base <= tol] tolerated drift. Extra candidate cells are
    informational only. *)

val gate_passes : gate_report -> bool
(** No regressions and no missing baseline cells. *)

(** {1 Summaries} *)

type summary = { campaign_name : string; cells : (cell * result) list }

val summarize : manifest -> summary
(** The manifest's cells in expansion order — what
    [Core.Report.campaign_summary] renders for [tats campaign report]. *)

val collect : spec -> summary
(** Run every cell sequentially in memory (no artifacts) — the golden
    demo path. Bit-identical results to {!run} + {!summarize}. *)
