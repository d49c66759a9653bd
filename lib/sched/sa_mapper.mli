(** Simulated-annealing task mapper — a search-based comparator for the
    constructive ASP.

    The state is a full mapping (task -> PE) plus a scheduling priority
    permutation; a state decodes to a schedule by list-scheduling the tasks
    in priority order onto their assigned PEs. Annealing moves either remap
    one task or swap two priorities. Because it searches globally instead of
    deciding greedily, it bounds how much the one-pass ASP leaves on the
    table (at ~1000x the cost — see the bench). *)

module Graph = Tats_taskgraph.Graph
module Pe = Tats_techlib.Pe
module Library = Tats_techlib.Library
module Hotspot = Tats_thermal.Hotspot

type objective =
  | Makespan
  | Peak_temperature of Hotspot.t
      (** steady-state peak under per-PE average power (with leakage),
          plus a large penalty per unit of deadline violation *)

type params = {
  initial_temperature : float;
  cooling : float;
  moves_per_temperature : int;
  min_temperature : float;
}

val default_params : params

type result = {
  schedule : Schedule.t;
  cost : float;
  moves_tried : int;
  moves_accepted : int;
}

val decode :
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  assignment:int array ->
  priority:int array ->
  Schedule.t
(** [decode ~assignment ~priority] builds the schedule for a fixed mapping:
    tasks become eligible in dependency order and ties are broken by
    [priority] (lower value = scheduled first). Exposed for tests. *)

val run :
  ?params:params ->
  seed:int ->
  objective:objective ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  unit ->
  result
(** Deterministic for a fixed seed. The initial state is the ASP baseline
    schedule's own mapping, so the result is never worse than a decoded
    baseline. Both temperatures must be positive and finite and [cooling]
    in (0, 1), or [Invalid_argument] is raised before any work. *)

type restarts_result = {
  best : result;  (** the winning chain's result *)
  best_restart : int;  (** its restart index *)
  restart_costs : float array;  (** final cost of every chain, by index *)
}

val run_restarts :
  ?params:params ->
  ?pool:Tats_util.Pool.t ->
  ?restarts:int ->
  seed:int ->
  objective:objective ->
  graph:Graph.t ->
  lib:Library.t ->
  pes:Pe.inst array ->
  unit ->
  restarts_result
(** Multi-start annealing: [restarts] (default 4) independent chains from
    the same baseline state, run on [pool] (default:
    {!Tats_util.Pool.default}). Chain 0 uses [Rng.create seed] and replays
    {!run} with that seed bit-for-bit; chain [i > 0] uses the derived
    generator {!Tats_util.Rng.derive}[ seed i]. Each chain is
    self-contained, so the whole search is deterministic in
    [(seed, restarts)] at any pool size; the best chain wins, ties broken
    by lowest restart index. *)
