module Matrix = Tats_linalg.Matrix
module Lu = Tats_linalg.Lu
module Trace = Tats_util.Trace
module Metricsreg = Tats_util.Metricsreg

type trace = { times : float array; temps : float array array }

let initial_ambient model =
  Array.make (Rcmodel.n_nodes model) (Rcmodel.package model).Package.ambient

(* Fleet-wide engine counters (every instance accumulates into the same
   registry cells, like Inquiry's). *)
let m_steps = Metricsreg.counter "transient.steps"
let m_factorizations = Metricsreg.counter "transient.factorizations"
let m_propagator_builds = Metricsreg.counter "transient.propagator_builds"
let m_q_hits = Metricsreg.counter "transient.q_cache_hits"
let m_q_misses = Metricsreg.counter "transient.q_cache_misses"

(* ------------------------------------------------------------------ *)
(* The event-driven engine                                            *)
(* ------------------------------------------------------------------ *)

type system = {
  a : Matrix.t;
  c : float array;
  base_rhs : float array;
  n_inputs : int;
}

let system ~a ~c ~base_rhs ~n_inputs =
  let n = Array.length c in
  if Matrix.rows a <> n || Matrix.cols a <> n then
    invalid_arg "Transient.system: matrix must be n x n for n capacitances";
  if Array.length base_rhs <> n then
    invalid_arg "Transient.system: base_rhs must have one entry per node";
  if n_inputs < 0 || n_inputs > n then
    invalid_arg "Transient.system: n_inputs out of range";
  Array.iter
    (fun ci ->
      if not (ci > 0.0) then
        invalid_arg "Transient.system: capacitances must be positive")
    c;
  { a = Matrix.copy a; c = Array.copy c; base_rhs = Array.copy base_rhs; n_inputs }

let of_model model =
  (* base_rhs = rhs at zero power, so u(p).(i) = p.(i) +. base_rhs.(i)
     reproduces Rcmodel.rhs bit for bit (inject +. ambient term, in that
     order, with a zero inject contributing +. 0.0). *)
  let zero = Array.make (Rcmodel.n_blocks model) 0.0 in
  {
    a = Rcmodel.system_matrix model;
    c = Rcmodel.capacitances model;
    base_rhs = Rcmodel.rhs model ~power:zero;
    n_inputs = Rcmodel.n_blocks model;
  }

let system_size sys = Array.length sys.c
let system_inputs sys = sys.n_inputs

(* State for one distinct step size: the factored (C/dt + A), the lazily
   built propagator M = (C/dt + A)^-1 (C/dt), and the q cache, keyed bit
   for bit by power vector. *)
type stepper = {
  factored : Lu.t;
  c_over_dt : float array;
  mutable prop : float array option; (* row-major: M(i, j) at i * n + j *)
  q_cache : float array Fkey.Tbl.t;
}

type counters = {
  mutable k_steps : int;
  mutable k_factorizations : int;
  mutable k_propagator_builds : int;
  mutable k_q_hits : int;
  mutable k_q_misses : int;
}

type t = {
  sys : system;
  steppers : (int64, stepper) Hashtbl.t; (* keyed by the bits of dt *)
  rhs_buf : float array;
  b_buf : float array;
  x_buf : float array;
  k : counters;
}

let create sys =
  let n = system_size sys in
  {
    sys;
    steppers = Hashtbl.create 8;
    rhs_buf = Array.make n 0.0;
    b_buf = Array.make n 0.0;
    x_buf = Array.make n 0.0;
    k =
      {
        k_steps = 0;
        k_factorizations = 0;
        k_propagator_builds = 0;
        k_q_hits = 0;
        k_q_misses = 0;
      };
  }

let check_power sys power =
  if Array.length power <> sys.n_inputs then
    invalid_arg
      (Printf.sprintf
         "Transient: power vector has %d entries; the model expects one per \
          input block (%d)"
         (Array.length power) sys.n_inputs)

let check_state sys temps =
  if Array.length temps <> system_size sys then
    invalid_arg "Transient: temperature vector must have one entry per node"

(* u(power) — same operand order as Rcmodel.rhs_into. *)
let rhs_into sys ~power dst =
  check_power sys power;
  for i = 0 to system_size sys - 1 do
    let inject = if i < sys.n_inputs then power.(i) else 0.0 in
    dst.(i) <- inject +. sys.base_rhs.(i)
  done

let stepper_for t ~dt =
  if not (Float.is_finite dt && dt > 0.0) then
    invalid_arg "Transient: dt must be positive and finite";
  let key = Int64.bits_of_float dt in
  match Hashtbl.find_opt t.steppers key with
  | Some s -> s
  | None ->
      Trace.with_span "transient.factor" @@ fun () ->
      Metricsreg.incr m_factorizations;
      t.k.k_factorizations <- t.k.k_factorizations + 1;
      let n = system_size t.sys in
      let lhs = Matrix.copy t.sys.a in
      let c_over_dt = Array.map (fun ci -> ci /. dt) t.sys.c in
      for i = 0 to n - 1 do
        Matrix.add_to lhs i i c_over_dt.(i)
      done;
      let s =
        { factored = Lu.factor lhs; c_over_dt; prop = None; q_cache = Fkey.Tbl.create 64 }
      in
      Hashtbl.replace t.steppers key s;
      s

let count_step t =
  Metricsreg.incr m_steps;
  t.k.k_steps <- t.k.k_steps + 1

(* The exact backward-Euler step from [src] into [dst], given an
   already-evaluated right-hand side: b = (C/dt) T + u, solve
   (C/dt + A) T' = b.  The addition order matches the seed integrator
   (commutativity makes c/dt*T +. u identical to u +. c/dt*T). *)
let exact_step_into t st rhs ~src ~dst =
  for i = 0 to system_size t.sys - 1 do
    t.b_buf.(i) <- (st.c_over_dt.(i) *. src.(i)) +. rhs.(i)
  done;
  Lu.solve_factored_into st.factored ~b:t.b_buf ~x:dst

let step_with_rhs t st rhs temps =
  exact_step_into t st rhs ~src:temps ~dst:t.x_buf;
  Array.blit t.x_buf 0 temps 0 (system_size t.sys);
  count_step t

let step t ~dt ~power temps =
  check_state t.sys temps;
  let st = stepper_for t ~dt in
  rhs_into t.sys ~power t.rhs_buf;
  step_with_rhs t st t.rhs_buf temps

(* Built on first use: the columns M e_j come from one batched solve and
   are transposed exactly into the row-major layout the stepping kernel
   reads. *)
let propagator t st =
  match st.prop with
  | Some m -> m
  | None ->
      Trace.with_span "transient.propagator" @@ fun () ->
      Metricsreg.incr m_propagator_builds;
      t.k.k_propagator_builds <- t.k.k_propagator_builds + 1;
      let n = system_size t.sys in
      let rhs =
        Array.init n (fun j ->
            let e = Array.make n 0.0 in
            e.(j) <- st.c_over_dt.(j);
            e)
      in
      let cols = Lu.solve_many st.factored rhs in
      let m = Array.make (n * n) 0.0 in
      Array.iteri (fun j col -> Array.iteri (fun i v -> m.((i * n) + j) <- v) col) cols;
      st.prop <- Some m;
      m

let max_q_cache_entries = 1 lsl 16

let q_for t st ~power =
  check_power t.sys power;
  match Fkey.Tbl.find_opt st.q_cache power with
  | Some q ->
      Metricsreg.incr m_q_hits;
      t.k.k_q_hits <- t.k.k_q_hits + 1;
      q
  | None ->
      Metricsreg.incr m_q_misses;
      t.k.k_q_misses <- t.k.k_q_misses + 1;
      rhs_into t.sys ~power t.rhs_buf;
      let q = Array.make (system_size t.sys) 0.0 in
      Lu.solve_factored_into st.factored ~b:t.rhs_buf ~x:q;
      if Fkey.Tbl.length st.q_cache >= max_q_cache_entries then
        Fkey.Tbl.reset st.q_cache;
      Fkey.Tbl.replace st.q_cache (Array.copy power) q;
      q

(* T' = M T + q on the row-major propagator. *)
let step_with_q t st q temps =
  let n = system_size t.sys in
  Matrix.mul_vec_add_into ~n (propagator t st) ~x:temps ~init:q ~dst:t.x_buf;
  Array.blit t.x_buf 0 temps 0 n;
  count_step t

let step_fast t ~dt ~power temps =
  check_state t.sys temps;
  let st = stepper_for t ~dt in
  let q = q_for t st ~power in
  step_with_q t st q temps

(* ------------------------------------------------------------------ *)
(* Piecewise-constant profiles and replay                             *)
(* ------------------------------------------------------------------ *)

type profile = {
  duration : float;
  starts : float array;
  powers : float array array;
}

let profile ~duration ~segments =
  if not (Float.is_finite duration && duration > 0.0) then
    invalid_arg "Transient.profile: duration must be positive and finite";
  (match segments with
  | [] -> invalid_arg "Transient.profile: no segments"
  | (s0, _) :: _ ->
      if s0 <> 0.0 then invalid_arg "Transient.profile: first segment must start at 0");
  let starts = Array.of_list (List.map fst segments) in
  let powers = Array.of_list (List.map (fun (_, p) -> Array.copy p) segments) in
  let n_inputs = Array.length powers.(0) in
  Array.iteri
    (fun k s ->
      if not (Float.is_finite s) || s < 0.0 || s >= duration then
        invalid_arg "Transient.profile: segment start outside [0, duration)";
      if k > 0 && s <= starts.(k - 1) then
        invalid_arg "Transient.profile: segment starts must ascend strictly";
      if Array.length powers.(k) <> n_inputs then
        invalid_arg "Transient.profile: inconsistent power vector lengths")
    starts;
  { duration; starts; powers }

let profile_duration p = p.duration
let profile_segments p = Array.length p.starts

let profile_power p time =
  let t = Float.rem (Float.rem time p.duration +. p.duration) p.duration in
  let k = ref 0 in
  Array.iteri (fun i s -> if s <= t then k := i) p.starts;
  Array.copy p.powers.(!k)

type replay_result = {
  final : float array;
  peak : float array;
  last_period_peak : float array;
  steps : int;
  trace : trace option;
}

(* Segment plan: [full] whole steps of [dt], then one remainder step that
   lands exactly on the breakpoint.  The remainder is the same float every
   period, so its factorization is computed once and cached. *)
type plan_entry = { power : float array; full : int; rem : float }

let plan_of_profile p ~dt =
  let n_seg = Array.length p.starts in
  Array.init n_seg (fun k ->
      let seg_end = if k + 1 < n_seg then p.starts.(k + 1) else p.duration in
      let len = seg_end -. p.starts.(k) in
      let full = int_of_float (Float.floor ((len /. dt) +. 1e-9)) in
      let rem = len -. (float_of_int full *. dt) in
      let rem = if rem <= 1e-9 *. dt then 0.0 else rem in
      { power = p.powers.(k); full; rem })

let replay ?(record = false) ?(exact = false) t ~profile:p ~t0 ~dt ~periods =
  check_state t.sys t0;
  if periods < 1 then invalid_arg "Transient.replay: need at least one period";
  if not (Float.is_finite dt && dt > 0.0) then
    invalid_arg "Transient.replay: dt must be positive and finite";
  Array.iter (check_power t.sys) p.powers;
  let n = system_size t.sys in
  let plan = plan_of_profile p ~dt in
  let steps_per_period =
    Array.fold_left (fun acc e -> acc + e.full + if e.rem > 0.0 then 1 else 0) 0 plan
  in
  let total = periods * steps_per_period in
  Trace.with_span "transient.replay"
    ~args:
      [
        ("periods", Trace.Int periods);
        ("segments", Trace.Int (Array.length plan));
        ("steps", Trace.Int total);
        ("exact", Trace.Bool exact);
      ]
  @@ fun () ->
  let st_dt = stepper_for t ~dt in
  (* Precompute the per-segment drive once: q vectors on the fast path
     (rhs solved through the factorization), plain right-hand sides on the
     exact path.  Either is constant across periods. *)
  let drive_full =
    Array.map
      (fun e ->
        if exact then begin
          let rhs = Array.make n 0.0 in
          rhs_into t.sys ~power:e.power rhs;
          rhs
        end
        else q_for t st_dt ~power:e.power)
      plan
  in
  (* A segment without a remainder keeps [st_dt] and [[||]] in the
     remainder slots below; its step loop never reads them. *)
  let rem_steppers =
    Array.map (fun e -> if e.rem > 0.0 then stepper_for t ~dt:e.rem else st_dt) plan
  in
  let drive_rem =
    Array.mapi
      (fun k e ->
        if e.rem = 0.0 then [||]
        else if exact then drive_full.(k) (* rhs is dt-independent *)
        else q_for t rem_steppers.(k) ~power:e.power)
      plan
  in
  (* Propagators are built only for the step sizes the plan takes. *)
  let prop_dt =
    if exact || not (Array.exists (fun e -> e.full > 0) plan) then [||]
    else propagator t st_dt
  in
  let prop_rem =
    Array.mapi
      (fun k e -> if exact || e.rem = 0.0 then [||] else propagator t rem_steppers.(k))
      plan
  in
  let peak = Array.copy t0 in
  let last_period_peak = Array.copy t0 in
  let times = if record then Array.make (total + 1) 0.0 else [||] in
  let temps_trace = if record then Array.make (total + 1) [||] else [||] in
  if record then temps_trace.(0) <- Array.copy t0;
  (* Each step writes [next] from [cur], then the two swap: no copy-back. *)
  let cur = ref (Array.copy t0) and next = ref (Array.make n 0.0) in
  let wall = ref 0.0 in
  let k_step = ref 0 in
  for period = 1 to periods do
    let in_last = period = periods in
    if in_last then Array.blit !cur 0 last_period_peak 0 n;
    for k = 0 to Array.length plan - 1 do
      let e = plan.(k) in
      for s = 1 to e.full + if e.rem > 0.0 then 1 else 0 do
        let is_rem = s > e.full in
        let src = !cur and dst = !next in
        if exact then
          exact_step_into t
            (if is_rem then rem_steppers.(k) else st_dt)
            (if is_rem then drive_rem.(k) else drive_full.(k))
            ~src ~dst
        else
          Matrix.mul_vec_add_into ~n
            (if is_rem then prop_rem.(k) else prop_dt)
            ~x:src
            ~init:(if is_rem then drive_rem.(k) else drive_full.(k))
            ~dst;
        cur := dst;
        next := src;
        incr k_step;
        wall := !wall +. (if is_rem then e.rem else dt);
        for i = 0 to n - 1 do
          let v = dst.(i) in
          if v > peak.(i) then peak.(i) <- v;
          if in_last && v > last_period_peak.(i) then last_period_peak.(i) <- v
        done;
        if record then begin
          times.(!k_step) <- !wall;
          temps_trace.(!k_step) <- Array.copy dst
        end
      done
    done
  done;
  Metricsreg.add m_steps total;
  t.k.k_steps <- t.k.k_steps + total;
  {
    final = !cur;
    peak;
    last_period_peak;
    steps = total;
    trace = (if record then Some { times; temps = temps_trace } else None);
  }

(* ------------------------------------------------------------------ *)
(* Whole-trace integrators                                            *)
(* ------------------------------------------------------------------ *)

let check_args model t0 dt steps =
  if Array.length t0 <> Rcmodel.n_nodes model then
    invalid_arg "Transient: t0 must cover all nodes";
  if dt <= 0.0 || steps < 1 then invalid_arg "Transient: bad dt/steps"

let checked_power model ~power time =
  let p = power time in
  if Array.length p <> Rcmodel.n_blocks model then
    invalid_arg
      (Printf.sprintf
         "Transient: power callback returned %d entries at t = %g; expected \
          one per block (%d)"
         (Array.length p) time (Rcmodel.n_blocks model));
  p

let derivative model c_inv a temps rhs =
  let flow = Matrix.mul_vec a temps in
  Array.init (Rcmodel.n_nodes model) (fun i -> c_inv.(i) *. (rhs.(i) -. flow.(i)))

let rk4 model ~power ~t0 ~dt ~steps =
  check_args model t0 dt steps;
  let a = Rcmodel.system_matrix model in
  let c_inv = Array.map (fun c -> 1.0 /. c) (Rcmodel.capacitances model) in
  let n = Rcmodel.n_nodes model in
  let times = Array.make (steps + 1) 0.0 in
  let temps = Array.make (steps + 1) t0 in
  temps.(0) <- Array.copy t0;
  for k = 1 to steps do
    let t_prev = times.(k - 1) and y = temps.(k - 1) in
    let rhs_at time = Rcmodel.rhs model ~power:(checked_power model ~power time) in
    let f time y = derivative model c_inv a y (rhs_at time) in
    let add y k scale = Array.init n (fun i -> y.(i) +. (scale *. k.(i))) in
    let k1 = f t_prev y in
    let k2 = f (t_prev +. (dt /. 2.0)) (add y k1 (dt /. 2.0)) in
    let k3 = f (t_prev +. (dt /. 2.0)) (add y k2 (dt /. 2.0)) in
    let k4 = f (t_prev +. dt) (add y k3 dt) in
    temps.(k) <-
      Array.init n (fun i ->
          y.(i) +. (dt /. 6.0 *. (k1.(i) +. (2.0 *. k2.(i)) +. (2.0 *. k3.(i)) +. k4.(i))));
    times.(k) <- t_prev +. dt
  done;
  { times; temps }

let backward_euler model ~power ~t0 ~dt ~steps =
  check_args model t0 dt steps;
  (* (C/dt + A) T_{k+1} = C/dt T_k + rhs(t_{k+1}) — run on the engine's
     exact stepper; same factorization, same operand order, bit-identical
     to the original in-line integrator. *)
  let engine = create (of_model model) in
  let times = Array.make (steps + 1) 0.0 in
  let temps = Array.make (steps + 1) t0 in
  temps.(0) <- Array.copy t0;
  let state = Array.copy t0 in
  for k = 1 to steps do
    let time = float_of_int k *. dt in
    step engine ~dt ~power:(checked_power model ~power time) state;
    temps.(k) <- Array.copy state;
    times.(k) <- time
  done;
  { times; temps }

let settle_time trace ~steady ~tol =
  let within temps =
    let ok = ref true in
    Array.iteri (fun i t -> if Float.abs (t -. steady.(i)) > tol then ok := false) temps;
    !ok
  in
  let n = Array.length trace.times in
  (* Scan backwards for the earliest index from which everything stays
     settled. *)
  let rec scan k last_good =
    if k < 0 then last_good
    else if within trace.temps.(k) then scan (k - 1) (Some k)
    else last_good
  in
  match scan (n - 1) None with
  | Some k -> Some trace.times.(k)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                    *)
(* ------------------------------------------------------------------ *)

type stats = {
  steps : int;
  factorizations : int;
  propagator_builds : int;
  q_cache_hits : int;
  q_cache_misses : int;
}

let stats t =
  {
    steps = t.k.k_steps;
    factorizations = t.k.k_factorizations;
    propagator_builds = t.k.k_propagator_builds;
    q_cache_hits = t.k.k_q_hits;
    q_cache_misses = t.k.k_q_misses;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>steps             %d@,factorizations    %d@,propagator builds %d@,\
     q-cache hits      %d (%.1f%%)@,q-cache misses    %d@]"
    s.steps s.factorizations s.propagator_builds s.q_cache_hits
    (let total = s.q_cache_hits + s.q_cache_misses in
     if total = 0 then 0.0 else 100.0 *. float_of_int s.q_cache_hits /. float_of_int total)
    s.q_cache_misses
