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

type base = { base_power : float array; response : float array }

type t = {
  solver : Steady.t;
  n : int;
  ambient : float;
  cols : float array array; (* cols.(j).(i) = dT_i per W injected at block j *)
  cache : (string, float array * int) Hashtbl.t; (* keyed by [cache_key] *)
  counters : counters;
  mutable warm : float array option;
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

(* The per-engine record lives behind the engine lock; the fleet-wide
   registry metrics are atomic, so bumps from concurrent pool workers
   never tear on either side. *)
let bump t f = locked t.lock (fun () -> f t.counters)

let run_query ?(max_iter = default_max_iter) ?(tol = default_tol)
    ?(cache = true) ?init t ~dynamic ~idle =
  if Array.length dynamic <> t.n || Array.length idle <> t.n then
    invalid_arg "Inquiry.query_with_leakage: bad vector length";
  (* Wall clock, not [Sys.time]: process CPU time counts every domain in
     the pool at once, which over-counted by about the domain count under
     [--jobs N]. Wall time per query is additive across domains. *)
  let t0 = Trace.now () in
  bump t (fun c -> c.c_inquiries <- c.c_inquiries + 1);
  Metricsreg.incr m_inquiries;
  (* Cached results were produced with the default convergence settings;
     bypass the cache when the caller overrides them, or asks for a
     stateless query outright. *)
  let cacheable = cache && max_iter = default_max_iter && tol = default_tol in
  let key = if cacheable then Some (cache_key ~dynamic ~idle) else None in
  let cached =
    match key with
    | None -> None
    | Some k -> locked t.lock (fun () -> Hashtbl.find_opt t.cache k)
  in
  let temps =
    match cached with
    | Some (temps, iters) ->
        bump t (fun c ->
            c.c_cache_hits <- c.c_cache_hits + 1;
            (* The dense path has no cache: it would have paid the full
               fixed point for this inquiry again. *)
            c.c_dense_solves <- c.c_dense_solves + 1 + iters);
        Metricsreg.incr m_cache_hits;
        Metricsreg.add m_dense_solves (1 + iters);
        Array.copy temps
    | None ->
        (* The fixed point itself runs without any lock: it only reads the
           immutable influence matrix and writes caller-local buffers. *)
        let temps, iters =
          Trace.with_span "inquiry.solve" (fun () ->
              Steady.fixed_point ~max_iter ~tol ?init
                ~package:(package t)
                ~solve:(apply t) ~dynamic ~idle ())
        in
        bump t (fun c ->
            c.c_fp_iterations <- c.c_fp_iterations + iters;
            c.c_dense_solves <- c.c_dense_solves + 1 + iters);
        Metricsreg.add m_fp_iterations iters;
        Metricsreg.add m_dense_solves (1 + iters);
        Metricsreg.observe h_solve_iterations (float_of_int iters);
        (match key with
        | Some k ->
            locked t.lock (fun () ->
                if Hashtbl.length t.cache >= max_cache_entries then
                  Hashtbl.reset t.cache;
                Hashtbl.replace t.cache k (Array.copy temps, iters);
                t.warm <- Some (Array.copy temps))
        | None -> ());
        temps
  in
  let dt = Trace.now () -. t0 in
  bump t (fun c -> c.c_wall_time <- c.c_wall_time +. dt);
  Metricsreg.add_gauge m_wall dt;
  Metricsreg.observe h_solve_seconds dt;
  temps

let query_with_leakage ?max_iter ?tol ?(warm = false) ?cache t ~dynamic ~idle =
  let init = if warm then locked t.lock (fun () -> t.warm) else None in
  run_query ?max_iter ?tol ?cache ?init t ~dynamic ~idle

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
  { base_power = Array.copy power; response }

let query_delta ?max_iter ?tol t ~base ~horizon ~pe ~extra ~idle =
  if pe < 0 || pe >= t.n then invalid_arg "Inquiry.query_delta: pe out of range";
  if horizon <= 0.0 then invalid_arg "Inquiry.query_delta: non-positive horizon";
  bump t (fun c -> c.c_delta_evals <- c.c_delta_evals + 1);
  Metricsreg.incr m_delta_evals;
  let dynamic =
    Array.init t.n (fun i ->
        (base.base_power.(i) /. horizon) +. if i = pe then extra else 0.0)
  in
  (* The linear solution of [dynamic], assembled in O(n) from the per-step
     base response instead of a fresh factored solve — the same starting
     point the dense path computes, so the fixed point follows the same
     trajectory. *)
  let col = t.cols.(pe) in
  let init =
    Array.init t.n (fun i ->
        t.ambient +. (base.response.(i) /. horizon) +. (extra *. col.(i)))
  in
  run_query ?max_iter ?tol ~init t ~dynamic ~idle
