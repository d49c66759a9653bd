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

(* Fleet-wide counters, accumulated across every engine instance in the
   process-global metrics registry: lock-free atomic bumps from any pool
   domain, named values in [tats --metrics] dumps, read back by
   [global_stats]. *)
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

(* A slot's [state] is one flat float block, replaced whole and never
   mutated once stored: [||] before any step ran (the slot is then in no
   table), [| mean; steps |] once converged, and a stopped iterate's
   temperatures followed by its step count, residual and mean. *)
type slot = { key : float array; (* pe, horizon, extra *) mutable state : float array }

let no_slot = { key = [||]; state = [||] }
let[@inline] converged state = Array.length state = 2
let[@inline] state_steps state = state.(if converged state then 1 else Array.length state - 3)

type step = {
  base : base;
  idle : float array;
  slots : slot Fkey.Tbl.t; (* keyed by [slot.key] *)
}

type t = {
  solver : Steady.t;
  n : int;
  ambient : float;
  cols : float array array; (* cols.(j).(i) = dT_i per W injected at block j *)
  rows : float array; (* the same matrix row-major: cols.(j).(i) at i * n + j *)
  col_means : float array; (* per column, summed in [Stats.mean]'s order *)
  floor_margin : float; (* relative rounding margins of [seed_floor]: the seed's *)
  iter_margin : float; (* and the iteration's *)
  steps : step Fkey.Tbl.t; (* keyed by a step's power and idle vectors *)
  mutable entries : int; (* step tables and slots, against [max_entries] *)
  counters : counters;
  (* Guards [steps], the slot tables, [entries] and [counters]; the
     influence matrix itself is immutable after [create], so concurrent
     solves never take the lock while number-crunching. *)
  lock : Mutex.t;
}

(* The bound on the step tables plus their slots. A full store is
   dropped whole. *)
let max_entries = 1 lsl 16

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
    rows = Array.init (n * n) (fun k -> cols.(k mod n).(k / n));
    col_means = Array.map Tats_util.Stats.mean cols;
    floor_margin = float_of_int (((2 * n) + 8) * n) *. epsilon_float;
    iter_margin = float_of_int (Steady.default_max_iter * (n + 8)) *. epsilon_float;
    steps = Fkey.Tbl.create 64;
    entries = 0;
    counters;
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
  Matrix.mul_vec_add_into ~n:t.n t.rows ~x:power ~init:dst ~dst

let temperatures t ~power =
  if Array.length power <> t.n then
    invalid_arg "Inquiry.temperatures: power vector must have one entry per block";
  let dst = Array.make t.n 0.0 in
  apply t power dst;
  dst

(* The engine lock is taken once per query, after its fixed point and
   without a closure, to count it; that section cannot raise. The
   fleet-wide registry metrics are atomic and bumped outside the lock. *)
let query_with_leakage ?max_iter t ~dynamic ~idle =
  if Array.length dynamic <> t.n || Array.length idle <> t.n then
    invalid_arg "Inquiry.query_with_leakage: bad vector length";
  (* Wall clock, not [Sys.time]: process CPU time counts every domain in
     the pool at once, which over-counted by about the domain count under
     [--jobs N]. Wall time per query is additive across domains. *)
  let t0 = Trace.now () in
  let run () =
    Steady.fixed_point ?max_iter ~package:(package t) ~solve:(apply t) ~dynamic
      ~idle ()
  in
  let it = if Trace.enabled () then Trace.with_span "inquiry.solve" run else run () in
  let steps = it.Steady.steps in
  let dt = Trace.now () -. t0 in
  let c = t.counters in
  Mutex.lock t.lock;
  c.c_inquiries <- c.c_inquiries + 1;
  c.c_fp_iterations <- c.c_fp_iterations + steps;
  (* The dense path pays the same steps, plus its linear solve. *)
  c.c_dense_solves <- c.c_dense_solves + 1 + steps;
  c.c_wall_time <- c.c_wall_time +. dt;
  Mutex.unlock t.lock;
  Metricsreg.incr m_inquiries;
  Metricsreg.add m_fp_iterations steps;
  Metricsreg.add m_dense_solves (1 + steps);
  Metricsreg.observe h_solve_iterations (float_of_int steps);
  Metricsreg.add_gauge m_wall dt;
  Metricsreg.observe h_solve_seconds dt;
  it.Steady.temps

let base_response t ~power =
  if Array.length power <> t.n then
    invalid_arg "Inquiry.base_response: power vector must have one entry per block";
  let response = Array.make t.n 0.0 in
  Matrix.mul_vec_add_into ~n:t.n t.rows ~x:power ~init:response ~dst:response;
  {
    base_power = Array.copy power;
    response;
    response_mean = Tats_util.Stats.mean response;
  }

let response base = Array.copy base.response

(* [Stats.mean], the same sum in the same order, written out so that no
   float is boxed per call. *)
let[@inline] mean_of temps n =
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. temps.(i)
  done;
  !sum /. float_of_int n

let check_delta what t ~horizon ~pe =
  if pe < 0 || pe >= t.n then invalid_arg ("Inquiry." ^ what ^ ": pe out of range");
  if horizon <= 0.0 then
    invalid_arg ("Inquiry." ^ what ^ ": non-positive horizon")

(* The seed's mean assembled in O(1) from the means of the base response
   and of [cols.(pe)]: in real arithmetic it is the mean of the per-block
   seeds, but its rounding differs from that summation's, so it is lowered
   by a margin that covers both. With every term of a block's seed
   non-negative but the ambient, each of the two evaluations is within
   (n + 4) u of the exact mean times the largest block magnitude, which
   is at most n times [magnitude] below (u = epsilon_float / 2); the
   margin [(2n + 8) n epsilon_float magnitude] is twice their sum.

   [lift] (from [leakage_lift]) bounds what the converged iteration adds
   to the seed's mean in real arithmetic; the float iteration differs
   from the real one by its rounding. A step evaluates each block by an
   n-term product, the leakage term and the damped sum, within (n + 8) u
   of the largest block temperature, and at most [max_iter] steps run,
   so the converged mean is within [max_iter (n + 8) u] of that
   temperature, which is at most [|ambient| + n (rise + own + lift)]:
   every block sits at or above the ambient. The margin takes twice
   that. *)
let seed_floor t ~base ~lift ~horizon ~pe ~extra =
  check_delta "seed_floor" t ~horizon ~pe;
  let rise = base.response_mean /. horizon and own = extra *. t.col_means.(pe) in
  let mean = t.ambient +. rise +. own +. lift in
  let magnitude = Float.abs t.ambient +. Float.abs rise +. Float.abs own in
  let hottest = Float.abs t.ambient +. (float_of_int t.n *. (rise +. own +. lift)) in
  mean -. (t.floor_margin *. magnitude) -. (t.iter_margin *. hottest)

(* The converged iterate of every inquiry on this step whose horizon is
   at most [horizon] sits, block by block, at least [(1 - inertia^K) L]
   above its linear seed, where [L = M (idle . leak(T_lo))] is the
   leakage rise at [T_lo = ambient + response / horizon], the coolest
   seed of those inquiries, and [K] the fewest steps any of them can
   converge in (DESIGN.md section 6). [K] counts the steps whose residual
   cannot fall to [tol]: the first is at least [damping max L], each
   later one at least [inertia] times the one before; a residual above
   [2 tol] is counted, so the iteration's rounding would have to exceed
   [tol] to end one sooner. The lift is lowered by its own rounding: the
   seed temperature (2 operations) and the exponent (3 more, relative to
   [|T_lo| + |T_ref|], amplified by [beta]), [exp] (1 ulp), the product
   with [idle], the n-term product with [M], the mean (n + 1), [K]
   products for [inertia^K], [1 - inertia^K] (relative, at most 2.5 K
   since it is at least 0.4) and the final product, taken twice over. *)
let leakage_lift t ~base ~idle ~horizon =
  if Array.length idle <> t.n then
    invalid_arg "Inquiry.leakage_lift: idle vector must have one entry per block";
  if horizon <= 0.0 then invalid_arg "Inquiry.leakage_lift: non-positive horizon";
  let n = t.n in
  let p = package t in
  let beta = p.Package.leak_beta and t_ref = p.Package.leak_t_ref in
  let leak = Array.make n 0.0 and rise = Array.make n 0.0 in
  let magnitude = ref 0.0 in
  for j = 0 to n - 1 do
    let t_lo = t.ambient +. (base.response.(j) /. horizon) in
    magnitude := Float.max !magnitude (Float.abs t_lo);
    let excursion = Float.min (t_lo -. t_ref) Steady.max_leak_excursion in
    leak.(j) <- idle.(j) *. exp (beta *. excursion)
  done;
  Matrix.mul_vec_add_into ~n t.rows ~x:leak ~init:rise ~dst:rise;
  let top = Array.fold_left Float.max 0.0 rise in
  let steps = ref 1 and residual = ref (Steady.damping *. top) in
  let keep = ref Steady.inertia in
  while !residual > 2.0 *. Steady.default_tol && !steps < Steady.default_max_iter do
    incr steps;
    residual := !residual *. Steady.inertia;
    keep := !keep *. Steady.inertia
  done;
  let lift = (1.0 -. !keep) *. mean_of rise n in
  let rounding =
    float_of_int ((2 * n) + 12 + (4 * !steps))
    +. (3.0 *. beta *. (!magnitude +. Float.abs t_ref))
  in
  Float.max 0.0 (lift -. (2.0 *. rounding *. epsilon_float *. lift))

(* --- Per-step tables ---------------------------------------------------- *)

(* [power] then [idle], as one key. *)
let step_key ~power ~idle = Array.append power idle

(* Counts a store against [max_entries], dropping every table when it is
   full. Called under the engine lock. *)
let count_entry t =
  if t.entries >= max_entries then begin
    Fkey.Tbl.reset t.steps;
    t.entries <- 0
  end;
  t.entries <- t.entries + 1

let step t ~power ~idle =
  if Array.length power <> t.n || Array.length idle <> t.n then
    invalid_arg "Inquiry.step: power and idle vectors must have one entry per block";
  let key = step_key ~power ~idle in
  Mutex.lock t.lock;
  let found = Fkey.Tbl.find_opt t.steps key in
  Mutex.unlock t.lock;
  match found with
  | Some s -> s
  | None ->
      (* Built outside the lock; a concurrent call for the same step
         makes the same table, and the one stored first is kept. *)
      let s =
        {
          base = base_response t ~power;
          idle = Array.copy idle;
          slots = Fkey.Tbl.create 8;
        }
      in
      Mutex.lock t.lock;
      let s =
        match Fkey.Tbl.find_opt t.steps key with
        | Some s -> s
        | None ->
            count_entry t;
            Fkey.Tbl.replace t.steps key s;
            s
      in
      Mutex.unlock t.lock;
      s

let step_base s = s.base

type tally = {
  mutable asked : int;
  mutable hits : int;
  mutable stepped : int; (* fixed-point steps run *)
  mutable dense : int;
  mutable runs : int; (* fixed points run *)
  clock : float array; (* the first run's start and the runs' total time *)
  (* Buffers of the engine's size for [ask]: the fixed point's, its seed
     or resumed iterate, and its dynamic power. Sized at the first ask. *)
  mutable work : Steady.work;
  mutable start : float array;
  mutable dynamic : float array;
}

let tally () =
  {
    asked = 0;
    hits = 0;
    stepped = 0;
    dense = 0;
    runs = 0;
    clock = [| 0.0; 0.0 |];
    work = Steady.work 0;
    start = [||];
    dynamic = [||];
  }

let flush t tl =
  if tl.asked > 0 then begin
    let wall = tl.clock.(1) in
    let c = t.counters in
    Mutex.lock t.lock;
    c.c_inquiries <- c.c_inquiries + tl.asked;
    c.c_delta_evals <- c.c_delta_evals + tl.asked;
    c.c_cache_hits <- c.c_cache_hits + tl.hits;
    c.c_fp_iterations <- c.c_fp_iterations + tl.stepped;
    c.c_dense_solves <- c.c_dense_solves + tl.dense;
    c.c_wall_time <- c.c_wall_time +. wall;
    Mutex.unlock t.lock;
    Metricsreg.add m_inquiries tl.asked;
    Metricsreg.add m_delta_evals tl.asked;
    if tl.hits > 0 then Metricsreg.add m_cache_hits tl.hits;
    Metricsreg.add m_dense_solves tl.dense;
    if tl.runs > 0 then begin
      Metricsreg.add m_fp_iterations tl.stepped;
      Metricsreg.add_gauge m_wall wall;
      if Trace.enabled () then
        Trace.record_span "inquiry.refine" ~start:tl.clock.(0) ~dur:wall
          ~args:[ ("solves", Trace.Int tl.runs); ("steps", Trace.Int tl.stepped) ]
    end;
    tl.asked <- 0;
    tl.hits <- 0;
    tl.stepped <- 0;
    tl.dense <- 0;
    tl.runs <- 0;
    tl.clock.(1) <- 0.0
  end

(* The slot of [key] in [s]: the stored one, or a fresh one that [ask]
   enters into the table once a fixed point ran a step on it. *)
let find_slot t s ~horizon ~pe ~extra =
  check_delta "ask" t ~horizon ~pe;
  let key = [| float_of_int pe; horizon; extra |] in
  Mutex.lock t.lock;
  let found = Fkey.Tbl.find_opt s.slots key in
  Mutex.unlock t.lock;
  match found with Some slot -> slot | None -> { key; state = [||] }

(* Store [state] in [slot], which is in [s]'s table from then on. A slot
   only moves forward along its trajectory: a state with no more steps
   than the one a concurrent ask stored is dropped. *)
let store t s slot ~was_fresh state =
  let current = slot.state in
  if Array.length current = 0 || state_steps state > state_steps current then
    slot.state <- state;
  if was_fresh then begin
    Mutex.lock t.lock;
    if not (Fkey.Tbl.mem s.slots slot.key) then begin
      count_entry t;
      Fkey.Tbl.replace s.slots slot.key slot
    end;
    Mutex.unlock t.lock
  end

(* The slot of candidate [i], looked up in [s] until it holds a state. *)
let slot_of t s ~slots i ~horizon ~pe ~extra =
  let cached = slots.(i) in
  if Array.length cached.state > 0 then cached
  else begin
    let slot = find_slot t s ~horizon ~pe ~extra in
    slots.(i) <- slot;
    slot
  end

let ask ?stop t s tl ~slots i ~horizon ~pe ~extra =
  let n = t.n in
  let slot = slot_of t s ~slots i ~horizon ~pe ~extra in
  let st = slot.state in
  let holds mean = match stop with Some holds -> holds mean | None -> false in
  tl.asked <- tl.asked + 1;
  if Array.length st > 0 && (converged st || holds st.(n + 2)) then begin
    (* A converged slot, or a stopped iterate [stop] already holds of: its
       mean is the answer. *)
    tl.hits <- tl.hits + 1;
    tl.dense <- tl.dense + 1 + int_of_float (state_steps st);
    st.(if converged st then 0 else n + 2)
  end
  else begin
    let { base; idle; _ } = s in
    if Array.length tl.start <> n then begin
      tl.work <- Steady.work n;
      tl.start <- Array.make n 0.0;
      tl.dynamic <- Array.make n 0.0
    end;
    let fresh = Array.length st = 0 in
    let start = tl.start in
    let init =
      if fresh then begin
        (* The linear solution of [dynamic], assembled in O(n) from the
           step's base response instead of a fresh solve: the starting
           point the dense path computes, so the fixed point follows the
           same trajectory. *)
        let col = t.cols.(pe) in
        for i = 0 to n - 1 do
          start.(i) <- t.ambient +. (base.response.(i) /. horizon) +. (extra *. col.(i))
        done;
        Steady.seed start
      end
      else begin
        Array.blit st 0 start 0 n;
        { Steady.temps = start; steps = int_of_float st.(n); residual = st.(n + 1) }
      end
    in
    let seed_mean = if fresh then mean_of start n else nan in
    if fresh && holds seed_mean then begin
      (* Stopped at its seed: no step, no slot. *)
      tl.dense <- tl.dense + 1;
      seed_mean
    end
    else begin
      let dynamic = tl.dynamic in
      for i = 0 to n - 1 do
        dynamic.(i) <-
          (base.base_power.(i) /. horizon) +. if i = pe then extra else 0.0
      done;
      let t0 = Trace.now () in
      let it =
        Steady.fixed_point ~work:tl.work ~init
          ?stop:(Option.map (fun holds temps -> holds (mean_of temps n)) stop)
          ~package:(package t) ~solve:(apply t) ~dynamic ~idle ()
      in
      let dt = Trace.now () -. t0 in
      if tl.runs = 0 then tl.clock.(0) <- t0;
      tl.clock.(1) <- tl.clock.(1) +. dt;
      tl.runs <- tl.runs + 1;
      let steps = it.Steady.steps in
      tl.stepped <- tl.stepped + (steps - init.Steady.steps);
      tl.dense <- tl.dense + 1 + steps;
      let mean = mean_of it.Steady.temps n in
      let state =
        if it.Steady.residual <= Steady.default_tol then [| mean; float_of_int steps |]
        else begin
          let packed = Array.make (n + 3) mean in
          Array.blit it.Steady.temps 0 packed 0 n;
          packed.(n) <- float_of_int steps;
          packed.(n + 1) <- it.Steady.residual;
          packed
        end
      in
      store t s slot ~was_fresh:fresh state;
      mean
    end
  end

let iterate slot =
  let st = slot.state in
  if Array.length st = 0 || converged st then None
  else
    let n = Array.length st - 3 in
    Some
      {
        Steady.temps = Array.sub st 0 n;
        steps = int_of_float st.(n);
        residual = st.(n + 1);
      }
