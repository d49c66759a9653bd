module Matrix = Tats_linalg.Matrix
module Lu = Tats_linalg.Lu
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg

type stats = {
  inquiries : int;
  cache_hits : int;
  fp_iterations : int;
  factored_solves : int;
  dense_solves : int;
  delta_evals : int;
  wall_time : float;
}

let empty_stats =
  {
    inquiries = 0;
    cache_hits = 0;
    fp_iterations = 0;
    factored_solves = 0;
    dense_solves = 0;
    delta_evals = 0;
    wall_time = 0.0;
  }

type counters = {
  mutable c_inquiries : int;
  mutable c_cache_hits : int;
  mutable c_fp_iterations : int;
  mutable c_factored_solves : int;
  mutable c_dense_solves : int;
  mutable c_delta_evals : int;
  mutable c_wall_time : float;
}

let fresh_counters () =
  {
    c_inquiries = 0;
    c_cache_hits = 0;
    c_fp_iterations = 0;
    c_factored_solves = 0;
    c_dense_solves = 0;
    c_delta_evals = 0;
    c_wall_time = 0.0;
  }

let snapshot c =
  {
    inquiries = c.c_inquiries;
    cache_hits = c.c_cache_hits;
    fp_iterations = c.c_fp_iterations;
    factored_solves = c.c_factored_solves;
    dense_solves = c.c_dense_solves;
    delta_evals = c.c_delta_evals;
    wall_time = c.c_wall_time;
  }

let reset_counters c =
  c.c_inquiries <- 0;
  c.c_cache_hits <- 0;
  c.c_fp_iterations <- 0;
  c.c_factored_solves <- 0;
  c.c_dense_solves <- 0;
  c.c_delta_evals <- 0;
  c.c_wall_time <- 0.0

(* Fleet-wide counters, accumulated across every engine instance — the
   bench harness creates hundreds of short-lived hotspots during table
   regeneration and wants one aggregate. These live in the process-global
   metrics registry: lock-free atomic bumps from any pool domain, named
   values in [tats --metrics] dumps, and [global_stats] reads them back
   into the legacy record shape. *)
let m_inquiries = Metricsreg.counter "inquiry.inquiries"
let m_cache_hits = Metricsreg.counter "inquiry.cache_hits"
let m_fp_iterations = Metricsreg.counter "inquiry.fp_iterations"
let m_factored_solves = Metricsreg.counter "inquiry.factored_solves"
let m_dense_solves = Metricsreg.counter "inquiry.dense_solves"
let m_delta_evals = Metricsreg.counter "inquiry.delta_evals"
let m_wall = Metricsreg.gauge "inquiry.wall_seconds"
let h_solve_iterations = Metricsreg.histogram "inquiry.solve_iterations"
let h_solve_seconds = Metricsreg.histogram "inquiry.solve_seconds"

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let global_stats () =
  {
    inquiries = Metricsreg.counter_value m_inquiries;
    cache_hits = Metricsreg.counter_value m_cache_hits;
    fp_iterations = Metricsreg.counter_value m_fp_iterations;
    factored_solves = Metricsreg.counter_value m_factored_solves;
    dense_solves = Metricsreg.counter_value m_dense_solves;
    delta_evals = Metricsreg.counter_value m_delta_evals;
    wall_time = Metricsreg.gauge_value m_wall;
  }

let reset_global_stats () =
  Metricsreg.set_counter m_inquiries 0;
  Metricsreg.set_counter m_cache_hits 0;
  Metricsreg.set_counter m_fp_iterations 0;
  Metricsreg.set_counter m_factored_solves 0;
  Metricsreg.set_counter m_dense_solves 0;
  Metricsreg.set_counter m_delta_evals 0;
  Metricsreg.set_gauge m_wall 0.0;
  Metricsreg.reset_histogram h_solve_iterations;
  Metricsreg.reset_histogram h_solve_seconds

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>inquiries        %d@,cache hits       %d (%.1f%%)@,\
     fixed-point iters %d@,factored solves  %d@,dense-path solves %d \
     (avoided %d)@,delta evals      %d@,engine wall time %.3f s@]"
    s.inquiries s.cache_hits
    (if s.inquiries = 0 then 0.0
     else 100.0 *. float_of_int s.cache_hits /. float_of_int s.inquiries)
    s.fp_iterations s.factored_solves s.dense_solves
    (s.dense_solves - s.factored_solves)
    s.delta_evals s.wall_time

type base = {
  base_power : float array;
  response : float array;
  response_mean : float; (* summed in [Stats.mean]'s order *)
}

type t = {
  solver : Steady.t;
  n : int;
  ambient : float;
  cols : float array array; (* cols.(j).(i) = dT_i per W injected at block j *)
  col_means : float array; (* per column, summed in [Stats.mean]'s order *)
  floor_margin : float; (* relative rounding margin of [seed_floor] *)
  cache : (string, float array) Hashtbl.t;
  (* keyed by [cache_key]: converged results and stopped iterates, [pack]ed *)
  counters : counters;
  mutable warm : float array option; (* the last converged entry *)
  (* Guards [cache], [warm] and [counters]; the influence matrix itself is
     immutable after [create], so concurrent solves never take the lock
     while number-crunching. *)
  lock : Mutex.t;
}

let default_max_iter = 200
let default_tol = 1e-6

(* Cache keys quantize powers to 1 nW, far below any physically meaningful
   difference but fine enough that only repeats of the same computation
   collide — a hit returns temperatures indistinguishable from a resolve.
   The 2n quantized values (dynamic, then idle) are packed as little-endian
   int64s into one 16n-byte string: a single flat block, where an int64
   array would box every slot. *)
let quantize p = Int64.of_float (Float.round (p *. 1e9))

let cache_key ~dynamic ~idle =
  let n = Array.length dynamic in
  let key = Bytes.create (16 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le key (8 * i) (quantize dynamic.(i));
    Bytes.set_int64_le key (8 * (n + i)) (quantize idle.(i))
  done;
  Bytes.unsafe_to_string key

let max_cache_entries = 1 lsl 16

let create solver =
  let model = Steady.model solver in
  let n = Rcmodel.n_blocks model in
  (* The whole influence matrix comes from one batched multi-RHS
     back-solve (Lu.solve_many under Steady.influence_columns) — one
     blocked pass over the factors instead of n separate unit solves,
     with element-wise identical columns. Only the first n block rows of
     the first n columns are retained. *)
  let cols =
    Trace.with_span "inquiry.build" (fun () ->
        let full = Steady.influence_columns ~n solver in
        Array.map (fun col -> Array.sub col 0 n) full)
  in
  Metricsreg.add m_factored_solves n;
  let counters = fresh_counters () in
  counters.c_factored_solves <- n;
  {
    solver;
    n;
    ambient = (Rcmodel.package model).Package.ambient;
    cols;
    col_means = Array.map Tats_util.Stats.mean cols;
    floor_margin = float_of_int (((2 * n) + 8) * n) *. epsilon_float;
    cache = Hashtbl.create 256;
    counters;
    warm = None;
    lock = Mutex.create ();
  }

let solver t = t.solver
let n_blocks t = t.n
let package t = Rcmodel.package (Steady.model t.solver)
let influence t = Matrix.init t.n t.n (fun i j -> t.cols.(j).(i))
let influence_column t j =
  if j < 0 || j >= t.n then invalid_arg "Inquiry.influence_column: out of range";
  Array.copy t.cols.(j)

let stats t = locked t.lock (fun () -> snapshot t.counters)
let reset_stats t = locked t.lock (fun () -> reset_counters t.counters)

(* ambient + M.p, written into [dst] — the engine's replacement for a
   factored back-substitution. *)
let apply t power dst =
  Array.fill dst 0 t.n t.ambient;
  for j = 0 to t.n - 1 do
    let pj = power.(j) in
    if pj <> 0.0 then begin
      let col = t.cols.(j) in
      for i = 0 to t.n - 1 do
        dst.(i) <- dst.(i) +. (pj *. col.(i))
      done
    end
  done

let temperatures t ~power =
  if Array.length power <> t.n then
    invalid_arg "Inquiry.temperatures: power vector must have one entry per block";
  let dst = Array.make t.n 0.0 in
  apply t power dst;
  dst

(* A cache entry holds an iterate in one flat block: its block
   temperatures, then its step count and residual — a word smaller than
   an array in a tuple, and four smaller than a [Steady.iterate] record
   with its boxed residual. Entries are never mutated once stored. *)
let pack (it : Steady.iterate) =
  let n = Array.length it.Steady.temps in
  let entry = Array.make (n + 2) it.Steady.residual in
  Array.blit it.Steady.temps 0 entry 0 n;
  entry.(n) <- float_of_int it.Steady.steps;
  entry

let entry_steps t entry = int_of_float entry.(t.n)
let entry_residual t entry = entry.(t.n + 1)

(* A miss's fixed point, from [init] (a seed, or a stopped iterate to
   resume), without any lock: it only reads the immutable influence
   matrix, copies its start and writes its own buffers. Returns the
   temperatures, the steps this call ran, the iterate's total step count
   and, when it ran any step under a cache [key], the entry to store. The
   [inquiry.solve] span costs its closure only while tracing. *)
let solve_miss t ~max_iter ~tol ?stop ~key ~dynamic ~idle init =
  let run () =
    Steady.fixed_point ~max_iter ~tol ?init ?stop ~package:(package t)
      ~solve:(apply t) ~dynamic ~idle ()
  in
  let it =
    if Trace.enabled () then Trace.with_span "inquiry.solve" run else run ()
  in
  let start = match init with Some i -> i.Steady.steps | None -> 0 in
  let steps = it.Steady.steps - start in
  ( it.Steady.temps,
    steps,
    it.Steady.steps,
    if steps > 0 && key <> None then Some (pack it) else None )

(* One inquiry takes the engine lock twice, without closures: once to count
   it and look its inputs up, once to count its outcome and store what it
   computed. Neither section can raise. The fleet-wide registry metrics are
   atomic and bumped outside the lock. *)
let run_query ?(max_iter = default_max_iter) ?(tol = default_tol)
    ?(cache = true) ?(warm = false) ?init ?stop ~delta t ~dynamic ~idle =
  if Array.length dynamic <> t.n || Array.length idle <> t.n then
    invalid_arg "Inquiry.query_with_leakage: bad vector length";
  (* Wall clock, not [Sys.time]: process CPU time counts every domain in
     the pool at once, which over-counted by about the domain count under
     [--jobs N]. Wall time per query is additive across domains. *)
  let t0 = Trace.now () in
  (* Cached iterates were produced with the default convergence settings;
     bypass the cache when the caller overrides them, or asks for a
     stateless query outright. *)
  let cacheable = cache && max_iter = default_max_iter && tol = default_tol in
  let key = if cacheable then Some (cache_key ~dynamic ~idle) else None in
  let c = t.counters in
  Mutex.lock t.lock;
  c.c_inquiries <- c.c_inquiries + 1;
  if delta then c.c_delta_evals <- c.c_delta_evals + 1;
  let found =
    match key with None -> None | Some k -> Hashtbl.find_opt t.cache k
  in
  let warm_start = if warm then t.warm else None in
  Mutex.unlock t.lock;
  Metricsreg.incr m_inquiries;
  if delta then Metricsreg.incr m_delta_evals;
  let copy entry = Array.sub entry 0 t.n in
  (* A converged entry is the answer; a stopped one is where the iteration
     resumes, ahead of any seed. *)
  let solve ?stop init = solve_miss t ~max_iter ~tol ?stop ~key ~dynamic ~idle init in
  let temps, steps, total, stored =
    match found with
    | Some entry when entry_residual t entry <= tol ->
        (copy entry, 0, entry_steps t entry, None)
    | Some entry -> (
        (* A stopped iterate: [stop] is asked of it here, once, as the fixed
           point would ask it before the next step (its step count is below
           [max_iter], the default every cached entry was produced with).
           When it holds, the iterate is the answer, as a converged one
           is; otherwise the resumed iteration must not ask it again. *)
        let temps = copy entry in
        match stop with
        | Some holds when holds temps -> (temps, 0, entry_steps t entry, None)
        | _ ->
            let asked = ref false in
            let stop =
              Option.map
                (fun holds temps ->
                  if !asked then holds temps
                  else begin
                    asked := true;
                    false
                  end)
                stop
            in
            solve ?stop
              (Some
                 {
                   Steady.temps;
                   steps = entry_steps t entry;
                   residual = entry_residual t entry;
                 }))
    | None ->
        let init =
          match warm_start with
          | Some w -> Some (Steady.seed (copy w))
          | None -> Option.map Steady.seed init
        in
        solve ?stop init
  in
  let hit = found <> None && steps = 0 in
  let dt = Trace.now () -. t0 in
  Mutex.lock t.lock;
  if hit then c.c_cache_hits <- c.c_cache_hits + 1;
  c.c_fp_iterations <- c.c_fp_iterations + steps;
  (* The dense path has no cache: it would have paid every step of this
     inquiry's fixed point again, plus its linear solve. *)
  c.c_dense_solves <- c.c_dense_solves + 1 + total;
  c.c_wall_time <- c.c_wall_time +. dt;
  (match (key, stored) with
  | Some k, Some entry ->
      if Hashtbl.length t.cache >= max_cache_entries then Hashtbl.reset t.cache;
      Hashtbl.replace t.cache k entry;
      if entry_residual t entry <= tol then t.warm <- Some entry
  | _ -> ());
  Mutex.unlock t.lock;
  if hit then Metricsreg.incr m_cache_hits;
  Metricsreg.add m_fp_iterations steps;
  Metricsreg.add m_dense_solves (1 + total);
  if not hit then Metricsreg.observe h_solve_iterations (float_of_int steps);
  Metricsreg.add_gauge m_wall dt;
  Metricsreg.observe h_solve_seconds dt;
  temps

let query_with_leakage ?max_iter ?tol ?warm ?cache t ~dynamic ~idle =
  run_query ?max_iter ?tol ?cache ?warm ~delta:false t ~dynamic ~idle

let base_response t ~power =
  if Array.length power <> t.n then
    invalid_arg "Inquiry.base_response: power vector must have one entry per block";
  let response = Array.make t.n 0.0 in
  for j = 0 to t.n - 1 do
    let pj = power.(j) in
    if pj <> 0.0 then begin
      let col = t.cols.(j) in
      for i = 0 to t.n - 1 do
        response.(i) <- response.(i) +. (pj *. col.(i))
      done
    end
  done;
  {
    base_power = Array.copy power;
    response;
    response_mean = Tats_util.Stats.mean response;
  }

let check_delta what t ~horizon ~pe =
  if pe < 0 || pe >= t.n then invalid_arg ("Inquiry." ^ what ^ ": pe out of range");
  if horizon <= 0.0 then
    invalid_arg ("Inquiry." ^ what ^ ": non-positive horizon")

(* Block [i] of the linear solution of [base_power / horizon + extra . e_pe],
   assembled in O(1) from the per-step base response and [col = cols.(pe)]:
   the seed of [query_delta]'s fixed point. *)
let[@inline] seed t ~base ~horizon ~col ~extra i =
  t.ambient +. (base.response.(i) /. horizon) +. (extra *. col.(i))

(* The seed's mean assembled in O(1) from the means of the base response
   and of [cols.(pe)]: in real arithmetic it is the mean of the per-block
   seeds, but its rounding differs from that summation's, so it is lowered
   by a margin that covers both. With every term of a block's seed
   non-negative but the ambient, each of the two evaluations is within
   (n + 4) u of the exact mean times the largest block magnitude, which
   is at most n times [magnitude] below (u = epsilon_float / 2); the
   margin [(2n + 8) n epsilon_float magnitude] is twice their sum. *)
let seed_floor t ~base ~horizon ~pe ~extra =
  check_delta "seed_floor" t ~horizon ~pe;
  let lift = base.response_mean /. horizon and own = extra *. t.col_means.(pe) in
  let mean = t.ambient +. lift +. own in
  let magnitude = Float.abs t.ambient +. Float.abs lift +. Float.abs own in
  mean -. (t.floor_margin *. magnitude)

let query_delta ?max_iter ?tol ?stop t ~base ~horizon ~pe ~extra ~idle =
  check_delta "query_delta" t ~horizon ~pe;
  (* The linear solution of [dynamic], assembled in O(n) from the per-step
     base response instead of a fresh factored solve — the same starting
     point the dense path computes, so the fixed point follows the same
     trajectory. Both vectors are filled by plain loops: an [Array.init]
     closure would box every float it returns. *)
  let col = t.cols.(pe) in
  let dynamic = Array.make t.n 0.0 and init = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    dynamic.(i) <-
      (base.base_power.(i) /. horizon) +. if i = pe then extra else 0.0;
    init.(i) <- seed t ~base ~horizon ~col ~extra i
  done;
  run_query ?max_iter ?tol ~init ?stop ~delta:true t ~dynamic ~idle
