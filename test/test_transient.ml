(* Differential and property tests for the event-driven transient engine.

   The battery leans on three ground truths:

   - the closed-form single-node RC response
     T(t) = T_inf + (T_0 - T_inf) e^{-t/RC}, which the integrators must
     approach as dt -> 0 (backward Euler at first order, RK4 at fourth);
   - linearity of C dT/dt = -A T + u, which every path must preserve to
     round-off;
   - the original in-line backward-Euler stepper (transcribed here from
     the seed tree), which the engine's exact path must reproduce bit for
     bit on real benchmark power sequences.

   `dune build @transient` runs just this suite. *)

module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Package = Tats_thermal.Package
module Rcmodel = Tats_thermal.Rcmodel
module Steady = Tats_thermal.Steady
module Transient = Tats_thermal.Transient
module Hotspot = Tats_thermal.Hotspot
module Matrix = Tats_linalg.Matrix
module Lu = Tats_linalg.Lu
module Benchmarks = Tats_taskgraph.Benchmarks
module Catalog = Tats_techlib.Catalog
module Policy = Tats_sched.Policy
module List_sched = Tats_sched.List_sched
module Metrics = Tats_sched.Metrics

let pkg = Package.default

let platform_model n =
  Rcmodel.build pkg
    (Grid.layout
       (Array.init n (fun i ->
            Block.make ~name:(Printf.sprintf "pe%d" i) ~area:1.6e-5 ())))

(* --- Closed-form single-node RC circuit --------------------------------- *)

(* One node, conductance g to ambient, capacitance c: the engine sees
   a = [g], base_rhs = [g * T_amb], so u(p) = p + g * T_amb and
   T(t) = T_amb + p/g + (T_0 - T_amb - p/g) e^{-t g / c}. *)
let rc_system ~g ~c ~ambient =
  Transient.system
    ~a:(Matrix.of_arrays [| [| g |] |])
    ~c:[| c |]
    ~base_rhs:[| g *. ambient |]
    ~n_inputs:1

let rc_exact ~g ~c ~ambient ~t0 ~p t =
  let t_inf = ambient +. (p /. g) in
  t_inf +. ((t0 -. t_inf) *. Float.exp (-.t *. g /. c))

let test_closed_form_heating () =
  (* tau = c/g = 0.25 s; one tau of heating at dt = 1e-7 must land within
     1e-6 of the exponential (backward Euler's first-order error at this
     dt is ~1.5e-7 for this 2 degree excursion). *)
  let g = 4.0 and c = 1.0 and ambient = 45.0 and p = 8.0 in
  let engine = Transient.create (rc_system ~g ~c ~ambient) in
  let duration = 0.25 and dt = 1e-7 in
  let profile = Transient.profile ~duration ~segments:[ (0.0, [| p |]) ] in
  let r = Transient.replay engine ~profile ~t0:[| ambient |] ~dt ~periods:1 in
  let exact = rc_exact ~g ~c ~ambient ~t0:ambient ~p duration in
  let err = Float.abs (r.Transient.final.(0) -. exact) in
  Alcotest.(check bool)
    (Printf.sprintf "closed-form error %.3g <= 1e-6" err)
    true (err <= 1e-6)

let test_closed_form_decay_first_order () =
  (* Free decay from 55 degC toward 45 degC: the error must shrink by ~2x
     when dt halves (backward Euler is first order), and the finer run
     must sit within 1e-5 of the exponential. *)
  let g = 4.0 and c = 1.0 and ambient = 45.0 in
  let duration = 0.25 in
  let exact = rc_exact ~g ~c ~ambient ~t0:55.0 ~p:0.0 duration in
  let err dt =
    let engine = Transient.create (rc_system ~g ~c ~ambient) in
    let profile = Transient.profile ~duration ~segments:[ (0.0, [| 0.0 |]) ] in
    let r = Transient.replay engine ~profile ~t0:[| 55.0 |] ~dt ~periods:1 in
    Float.abs (r.Transient.final.(0) -. exact)
  in
  let e1 = err 1e-6 and e2 = err 5e-7 in
  Alcotest.(check bool) (Printf.sprintf "fine error %.3g <= 1e-5" e2) true (e2 <= 1e-5);
  let ratio = e1 /. Float.max e2 1e-300 in
  Alcotest.(check bool)
    (Printf.sprintf "first order: err(dt)/err(dt/2) = %.3f" ratio)
    true
    (ratio > 1.6 && ratio < 2.5)

let test_step_matches_scalar_recurrence () =
  (* One engine step on the 1x1 system must equal the hand-evaluated
     backward-Euler recurrence T' = (c/dt T + u) / (c/dt + g). *)
  let g = 4.0 and c = 1.0 and ambient = 45.0 and p = 8.0 in
  let engine = Transient.create (rc_system ~g ~c ~ambient) in
  let dt = 0.01 in
  let temps = [| 50.0 |] in
  Transient.step engine ~dt ~power:[| p |] temps;
  let u = p +. (g *. ambient) in
  let expected = ((c /. dt *. 50.0) +. u) /. ((c /. dt) +. g) in
  Alcotest.(check (float 1e-12)) "scalar recurrence" expected temps.(0)

(* --- Linearity ----------------------------------------------------------- *)

let test_superposition () =
  (* With base_rhs = 0 the system is purely linear: the response to
     p1 + p2 from 0 is the sum of the individual responses. *)
  let model = platform_model 4 in
  let n = Rcmodel.n_nodes model in
  let sys =
    Transient.system ~a:(Rcmodel.system_matrix model)
      ~c:(Rcmodel.capacitances model) ~base_rhs:(Array.make n 0.0) ~n_inputs:n
  in
  let p1 = Array.init n (fun i -> 0.5 +. (0.7 *. float_of_int i)) in
  let p2 = Array.init n (fun i -> 3.0 -. (0.4 *. float_of_int i)) in
  let p12 = Array.init n (fun i -> p1.(i) +. p2.(i)) in
  let respond p =
    let engine = Transient.create sys in
    let temps = Array.make n 0.0 in
    for _ = 1 to 50 do
      Transient.step engine ~dt:0.01 ~power:p temps
    done;
    temps
  in
  let t1 = respond p1 and t2 = respond p2 and t12 = respond p12 in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "node %d superposition" i)
        v
        (t1.(i) +. t2.(i)))
    t12

(* --- Integrator cross-validation ----------------------------------------- *)

let const_power p = fun (_ : float) -> Array.copy p

let final_of_trace (tr : Transient.trace) =
  tr.Transient.temps.(Array.length tr.Transient.temps - 1)

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i v -> d := Float.max !d (Float.abs (v -. b.(i)))) a;
  !d

let test_integrators_converge () =
  (* Constant power to t = 0.8 s. Reference: the exact stepper at
     dt = 1e-4. Backward Euler must converge at first order toward it,
     and RK4 at the same dt must be far more accurate. *)
  let model = platform_model 4 in
  let p = [| 5.0; 8.0; 3.0; 6.0 |] in
  let t_end = 0.8 in
  let t0 = Transient.initial_ambient model in
  let reference =
    let engine = Transient.create (Transient.of_model model) in
    let profile = Transient.profile ~duration:t_end ~segments:[ (0.0, p) ] in
    (Transient.replay ~exact:true engine ~profile ~t0 ~dt:1e-4 ~periods:1)
      .Transient.final
  in
  let be dt =
    let steps = int_of_float (Float.round (t_end /. dt)) in
    max_abs_diff
      (final_of_trace (Transient.backward_euler model ~power:(const_power p) ~t0 ~dt ~steps))
      reference
  in
  let e8 = be 8e-3 and e4 = be 4e-3 in
  let ratio = e8 /. Float.max e4 1e-300 in
  Alcotest.(check bool)
    (Printf.sprintf "BE first order: %.3g / %.3g = %.2f" e8 e4 ratio)
    true
    (ratio > 1.5 && ratio < 2.6);
  let e_rk4 =
    let dt = 4e-3 in
    let steps = int_of_float (Float.round (t_end /. dt)) in
    max_abs_diff
      (final_of_trace (Transient.rk4 model ~power:(const_power p) ~t0 ~dt ~steps))
      reference
  in
  Alcotest.(check bool)
    (Printf.sprintf "RK4 (%.3g) beats BE (%.3g) at the same dt" e_rk4 e4)
    true
    (e_rk4 < e4 /. 5.0)

let test_fast_path_matches_exact () =
  (* The propagator recurrence is the same linear map as the factored
     solve, evaluated in a different association order: round-off only. *)
  let model = platform_model 4 in
  let p = [| 5.0; 8.0; 3.0; 6.0 |] in
  let t0 = Transient.initial_ambient model in
  let profile =
    Transient.profile ~duration:0.775
      ~segments:[ (0.0, p); (0.31, [| 1.0; 0.5; 9.0; 2.0 |]) ]
  in
  let run exact =
    let engine = Transient.create (Transient.of_model model) in
    (Transient.replay ~exact engine ~profile ~t0 ~dt:7e-3 ~periods:10)
      .Transient.final
  in
  let d = max_abs_diff (run true) (run false) in
  Alcotest.(check bool) (Printf.sprintf "fast vs exact %.3g" d) true (d <= 1e-8)

(* --- Fixed point ---------------------------------------------------------- *)

let test_replay_endpoint_reaches_steady () =
  (* The backward-Euler fixed point for constant power is exactly the
     steady-state solve: (C/dt + A) T = C/dt T + u  =>  A T = u. After
     ~2000 s of simulated time every transient mode is dead. *)
  let model = platform_model 4 in
  let p = [| 6.0; 2.0; 9.0; 4.0 |] in
  let engine = Transient.create (Transient.of_model model) in
  let profile = Transient.profile ~duration:50.0 ~segments:[ (0.0, p) ] in
  let r =
    Transient.replay engine ~profile
      ~t0:(Transient.initial_ambient model)
      ~dt:0.5 ~periods:40
  in
  let steady = Steady.solve (Steady.create model) ~power:p in
  let d = max_abs_diff r.Transient.final steady in
  Alcotest.(check bool) (Printf.sprintf "fixed point gap %.3g" d) true (d <= 1e-6)

let test_recorded_trace_settles () =
  let model = platform_model 4 in
  let p = [| 6.0; 2.0; 9.0; 4.0 |] in
  let engine = Transient.create (Transient.of_model model) in
  let profile = Transient.profile ~duration:50.0 ~segments:[ (0.0, p) ] in
  let r =
    Transient.replay ~record:true engine ~profile
      ~t0:(Transient.initial_ambient model)
      ~dt:0.5 ~periods:40
  in
  let trace = Option.get r.Transient.trace in
  let steady = Steady.solve (Steady.create model) ~power:p in
  match Transient.settle_time trace ~steady ~tol:0.5 with
  | Some t ->
      Alcotest.(check bool) "settles well before the end" true (t < 1000.0)
  | None -> Alcotest.fail "recorded trace never settles to the steady solve"

(* --- Replay plan vs manual stepping --------------------------------------- *)

let test_replay_exact_matches_manual_steps () =
  (* The event-driven plan (full steps + one remainder step per segment)
     must be bit-identical to stepping the engine by hand over the same
     breakpoints. *)
  let model = platform_model 4 in
  let pa = [| 5.0; 1.0; 2.0; 8.0 |]
  and pb = [| 0.5; 7.0; 3.0; 1.0 |]
  and pc = [| 2.0; 2.0; 2.0; 2.0 |] in
  let duration = 0.55 and dt = 0.06 and periods = 2 in
  let segments = [ (0.0, pa); (0.13, pb); (0.4, pc) ] in
  let t0 = Transient.initial_ambient model in
  let r =
    let engine = Transient.create (Transient.of_model model) in
    let profile = Transient.profile ~duration ~segments in
    Transient.replay ~exact:true engine ~profile ~t0 ~dt ~periods
  in
  let manual = Array.copy t0 in
  let manual_steps = ref 0 in
  let engine = Transient.create (Transient.of_model model) in
  let bounds = [ (0.0, 0.13, pa); (0.13, 0.4, pb); (0.4, duration, pc) ] in
  for _ = 1 to periods do
    List.iter
      (fun (s, e, p) ->
        let len = e -. s in
        let full = int_of_float (Float.floor ((len /. dt) +. 1e-9)) in
        let rem = len -. (float_of_int full *. dt) in
        let rem = if rem <= 1e-9 *. dt then 0.0 else rem in
        for _ = 1 to full do
          Transient.step engine ~dt ~power:p manual;
          incr manual_steps
        done;
        if rem > 0.0 then begin
          Transient.step engine ~dt:rem ~power:p manual;
          incr manual_steps
        end)
      bounds
  done;
  Alcotest.(check int) "same step count" !manual_steps r.Transient.steps;
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d bit-identical" i)
        true
        (Int64.bits_of_float v = Int64.bits_of_float r.Transient.final.(i)))
    manual

(* --- Old stepper differential -------------------------------------------- *)

(* The in-line backward-Euler stepper the seed tree carried (in Dtm and
   Metrics.transient_peak), transcribed verbatim: factor (C/dt + A) once,
   then solve (C/dt + A) T' = rhs(power) + (C/dt) T. *)
let seed_stepper model ~dt =
  let n = Rcmodel.n_nodes model in
  let lhs = Matrix.copy (Rcmodel.system_matrix model) in
  let c = Rcmodel.capacitances model in
  let c_over_dt = Array.init n (fun i -> c.(i) /. dt) in
  for i = 0 to n - 1 do
    Matrix.add_to lhs i i c_over_dt.(i)
  done;
  let factored = Lu.factor lhs in
  fun ~power temps ->
    let rhs = Rcmodel.rhs model ~power in
    let b = Array.init n (fun i -> rhs.(i) +. (c_over_dt.(i) *. temps.(i))) in
    let x = Lu.solve_factored factored b in
    Array.blit x 0 temps 0 n

let test_engine_bit_identical_to_seed_stepper () =
  (* Replay each benchmark's real power sequence through both the old
     stepper and the engine: every intermediate temperature must agree
     bit for bit. *)
  let lib = Catalog.platform_library () in
  List.iter
    (fun bench ->
      let graph = Benchmarks.load bench in
      let pes = Catalog.platform_instances 4 in
      let s = List_sched.run ~graph ~lib ~pes ~policy:Policy.Baseline () in
      let hotspot =
        Hotspot.create
          (Grid.layout
             (Array.map
                (fun (i : Tats_techlib.Pe.inst) ->
                  Block.make
                    ~name:(string_of_int i.Tats_techlib.Pe.inst_id)
                    ~area:i.Tats_techlib.Pe.kind.Tats_techlib.Pe.area ())
                pes))
      in
      let model = Hotspot.model hotspot in
      let dt = 1e-3 in
      let old_step = seed_stepper model ~dt in
      let engine = Transient.create (Transient.of_model model) in
      let old_temps = Transient.initial_ambient model in
      let new_temps = Transient.initial_ambient model in
      let makespan = s.Tats_sched.Schedule.makespan in
      for k = 0 to 199 do
        let time = float_of_int k *. makespan /. 200.0 in
        let power = Metrics.power_profile s ~lib ~time in
        old_step ~power old_temps;
        Transient.step engine ~dt ~power new_temps;
        Array.iteri
          (fun i v ->
            if Int64.bits_of_float v <> Int64.bits_of_float new_temps.(i) then
              Alcotest.failf "Bm%d step %d node %d: %h vs %h" (bench + 1) k i v
                new_temps.(i))
          old_temps
      done)
    [ 0; 1; 2 ]

(* --- Row-major kernel and fast replay vs the column-major stepper ---------- *)

(* The column-major saxpy sweep the engine stepped with before the
   propagator went row-major, transcribed verbatim:
   dst <- init; for j ascending with x.(j) <> 0, dst <- dst + x.(j) col_j. *)
let column_major_sweep cols ~x ~init dst =
  let n = Array.length init in
  Array.blit init 0 dst 0 n;
  for j = 0 to n - 1 do
    let tj = x.(j) in
    if tj <> 0.0 then begin
      let col = cols.(j) in
      for i = 0 to n - 1 do
        dst.(i) <- dst.(i) +. (tj *. col.(i))
      done
    end
  done

let test_kernel_matches_column_sweep () =
  let rng = Random.State.make [| 29 |] in
  let draw () = Random.State.float rng 4.0 -. 2.0 in
  for n = 1 to 9 do
    for trial = 0 to 19 do
      let m = Array.init (n * n) (fun _ -> draw ()) in
      let cols = Array.init n (fun j -> Array.init n (fun i -> m.((i * n) + j))) in
      (* A third of the entries are 0.0 and, on even trials, another
         third -0.0: the kernel skips both. *)
      let x =
        Array.init n (fun j ->
            match (j + trial) mod 3 with
            | 0 -> 0.0
            | 1 when trial mod 2 = 0 -> -0.0
            | _ -> draw ())
      in
      let init = Array.init n (fun _ -> draw ()) in
      let expected = Array.make n 0.0 in
      column_major_sweep cols ~x ~init expected;
      let dst = Array.make n nan in
      Matrix.mul_vec_add_into ~n m ~x ~init ~dst;
      Alcotest.(check (array int64))
        (Printf.sprintf "n = %d, trial %d" n trial)
        (Array.map Int64.bits_of_float expected)
        (Array.map Int64.bits_of_float dst);
      (* [init] may be [dst]. *)
      let aliased = Array.copy init in
      Matrix.mul_vec_add_into ~n m ~x ~init:aliased ~dst:aliased;
      Alcotest.(check (array int64))
        (Printf.sprintf "n = %d, trial %d, init = dst" n trial)
        (Array.map Int64.bits_of_float expected)
        (Array.map Int64.bits_of_float aliased)
    done
  done

(* The fast-path engine and replay as they were before the row-major
   kernel, transcribed (the q cache, lazy column propagators, per-step
   counting, and the replay loop with its [advance] and [after_step]
   closures). Left out: spans, registry counters, argument checks and the
   q cache's size cap, none of which moves a float or an engine count
   here. *)
module Column_engine = struct
  module Fkey = Tats_thermal.Fkey

  type stepper = {
    factored : Lu.t;
    c_over_dt : float array;
    mutable prop : float array array option;
    q_cache : float array Fkey.Tbl.t;
  }

  type t = {
    a : Matrix.t;
    c : float array;
    base_rhs : float array;
    n_inputs : int;
    steppers : (int64, stepper) Hashtbl.t;
    rhs_buf : float array;
    x_buf : float array;
    mutable steps : int;
    mutable factorizations : int;
    mutable propagator_builds : int;
    mutable q_hits : int;
    mutable q_misses : int;
  }

  let of_model model =
    let zero = Array.make (Rcmodel.n_blocks model) 0.0 in
    let n = Rcmodel.n_nodes model in
    {
      a = Rcmodel.system_matrix model;
      c = Rcmodel.capacitances model;
      base_rhs = Rcmodel.rhs model ~power:zero;
      n_inputs = Rcmodel.n_blocks model;
      steppers = Hashtbl.create 8;
      rhs_buf = Array.make n 0.0;
      x_buf = Array.make n 0.0;
      steps = 0;
      factorizations = 0;
      propagator_builds = 0;
      q_hits = 0;
      q_misses = 0;
    }

  let size t = Array.length t.c

  let rhs_into t ~power dst =
    for i = 0 to size t - 1 do
      let inject = if i < t.n_inputs then power.(i) else 0.0 in
      dst.(i) <- inject +. t.base_rhs.(i)
    done

  let stepper_for t ~dt =
    let key = Int64.bits_of_float dt in
    match Hashtbl.find_opt t.steppers key with
    | Some s -> s
    | None ->
        t.factorizations <- t.factorizations + 1;
        let n = size t in
        let lhs = Matrix.copy t.a in
        let c_over_dt = Array.map (fun ci -> ci /. dt) t.c in
        for i = 0 to n - 1 do
          Matrix.add_to lhs i i c_over_dt.(i)
        done;
        let s =
          { factored = Lu.factor lhs; c_over_dt; prop = None; q_cache = Fkey.Tbl.create 64 }
        in
        Hashtbl.replace t.steppers key s;
        s

  let propagator t st =
    match st.prop with
    | Some cols -> cols
    | None ->
        t.propagator_builds <- t.propagator_builds + 1;
        let n = size t in
        let rhs =
          Array.init n (fun j ->
              let e = Array.make n 0.0 in
              e.(j) <- st.c_over_dt.(j);
              e)
        in
        let cols = Lu.solve_many st.factored rhs in
        st.prop <- Some cols;
        cols

  let q_for t st ~power =
    match Fkey.Tbl.find_opt st.q_cache power with
    | Some q ->
        t.q_hits <- t.q_hits + 1;
        q
    | None ->
        t.q_misses <- t.q_misses + 1;
        rhs_into t ~power t.rhs_buf;
        let q = Array.make (size t) 0.0 in
        Lu.solve_factored_into st.factored ~b:t.rhs_buf ~x:q;
        Fkey.Tbl.replace st.q_cache (Array.copy power) q;
        q

  let step_with_q t st q temps =
    let n = size t in
    let cols = propagator t st in
    Array.blit q 0 t.x_buf 0 n;
    for j = 0 to n - 1 do
      let tj = temps.(j) in
      if tj <> 0.0 then begin
        let col = cols.(j) in
        for i = 0 to n - 1 do
          t.x_buf.(i) <- t.x_buf.(i) +. (tj *. col.(i))
        done
      end
    done;
    Array.blit t.x_buf 0 temps 0 n;
    t.steps <- t.steps + 1

  type plan_entry = { power : float array; full : int; rem : float }

  let plan_of_segments ~duration segments ~dt =
    let starts = Array.of_list (List.map fst segments) in
    let powers = Array.of_list (List.map snd segments) in
    let n_seg = Array.length starts in
    Array.init n_seg (fun k ->
        let seg_end = if k + 1 < n_seg then starts.(k + 1) else duration in
        let len = seg_end -. starts.(k) in
        let full = int_of_float (Float.floor ((len /. dt) +. 1e-9)) in
        let rem = len -. (float_of_int full *. dt) in
        let rem = if rem <= 1e-9 *. dt then 0.0 else rem in
        { power = powers.(k); full; rem })

  (* Returns final, peak, last-period peak and the recorded trace. *)
  let replay ~record t ~duration ~segments ~t0 ~dt ~periods =
    let n = size t in
    let plan = plan_of_segments ~duration segments ~dt in
    let steps_per_period =
      Array.fold_left (fun acc e -> acc + e.full + if e.rem > 0.0 then 1 else 0) 0 plan
    in
    let total = periods * steps_per_period in
    let st_dt = stepper_for t ~dt in
    let drive_full = Array.map (fun e -> q_for t st_dt ~power:e.power) plan in
    let rem_steppers =
      Array.map (fun e -> if e.rem > 0.0 then Some (stepper_for t ~dt:e.rem) else None) plan
    in
    let drive_rem =
      Array.mapi
        (fun k e ->
          match rem_steppers.(k) with
          | None -> None
          | Some st_rem -> Some (q_for t st_rem ~power:e.power))
        plan
    in
    let temps = Array.copy t0 in
    let peak = Array.copy t0 in
    let last_period_peak = Array.copy t0 in
    let times = if record then Array.make (total + 1) 0.0 else [||] in
    let temps_trace = if record then Array.make (total + 1) [||] else [||] in
    if record then temps_trace.(0) <- Array.copy t0;
    let wall = ref 0.0 in
    let k_step = ref 0 in
    let in_last = ref (periods = 1) in
    let after_step h =
      incr k_step;
      wall := !wall +. h;
      for i = 0 to n - 1 do
        if temps.(i) > peak.(i) then peak.(i) <- temps.(i);
        if !in_last && temps.(i) > last_period_peak.(i) then
          last_period_peak.(i) <- temps.(i)
      done;
      if record then begin
        times.(!k_step) <- !wall;
        temps_trace.(!k_step) <- Array.copy temps
      end
    in
    for period = 1 to periods do
      if period = periods then begin
        in_last := true;
        Array.blit temps 0 last_period_peak 0 n
      end;
      Array.iteri
        (fun k e ->
          let advance st_h drive h =
            step_with_q t st_h drive temps;
            after_step h
          in
          for _ = 1 to e.full do
            advance st_dt drive_full.(k) dt
          done;
          match (rem_steppers.(k), drive_rem.(k)) with
          | Some st_rem, Some drive -> advance st_rem drive e.rem
          | _ -> ())
        plan
    done;
    (temps, peak, last_period_peak, (times, temps_trace))
end

let platform_model_named name =
  let platform = Option.get (Catalog.platform_named name) in
  Hotspot.model (Tats_cosynth.Flow.platform_facade platform)

(* A seeded profile of [n_seg] segments on a 0.125 s grid (exact in
   binary), stretched by [skew]: with [skew = 0] every segment is a whole
   number of [dt = 0.125] steps, otherwise most carry a remainder. Power
   entries include zeros. *)
let seeded_segments rng ~n_blocks ~n_seg ~skew =
  let starts =
    List.init n_seg (fun k ->
        if k = 0 then 0.0
        else (float_of_int (3 * k) *. 0.125) +. (skew *. Random.State.float rng 0.1))
  in
  let duration = (float_of_int (3 * n_seg) *. 0.125) +. skew in
  let power () =
    Array.init n_blocks (fun _ ->
        if Random.State.int rng 4 = 0 then 0.0 else Random.State.float rng 12.0)
  in
  (duration, List.map (fun s -> (s, power ())) starts)

let check_replay_equals_column_engine what model ~duration ~segments ~dt ~periods
    ~record =
  let bits = Array.map Int64.bits_of_float in
  let t0 = Transient.initial_ambient model in
  let old = Column_engine.of_model model in
  let o_final, o_peak, o_last, (o_times, o_trace) =
    Column_engine.replay ~record old ~duration ~segments ~t0 ~dt ~periods
  in
  let engine = Transient.create (Transient.of_model model) in
  let r =
    Transient.replay ~record engine
      ~profile:(Transient.profile ~duration ~segments)
      ~t0 ~dt ~periods
  in
  let check_vec name a b =
    Alcotest.(check (array int64)) (what ^ ": " ^ name) (bits a) (bits b)
  in
  check_vec "final" o_final r.Transient.final;
  check_vec "peak" o_peak r.Transient.peak;
  check_vec "last_period_peak" o_last r.Transient.last_period_peak;
  Alcotest.(check int) (what ^ ": steps") old.Column_engine.steps r.Transient.steps;
  (match r.Transient.trace with
  | None -> Alcotest.(check bool) (what ^ ": no trace") false record
  | Some tr ->
      check_vec "trace times" o_times tr.Transient.times;
      Alcotest.(check int)
        (what ^ ": trace length")
        (Array.length o_trace)
        (Array.length tr.Transient.temps);
      Array.iteri (fun k v -> check_vec (Printf.sprintf "trace %d" k) v tr.Transient.temps.(k)) o_trace);
  let s = Transient.stats engine in
  Alcotest.(check (list int))
    (what ^ ": stats (steps, factorizations, propagator builds, q hits, q misses)")
    [
      old.Column_engine.steps;
      old.Column_engine.factorizations;
      old.Column_engine.propagator_builds;
      old.Column_engine.q_hits;
      old.Column_engine.q_misses;
    ]
    [
      s.Transient.steps;
      s.Transient.factorizations;
      s.Transient.propagator_builds;
      s.Transient.q_cache_hits;
      s.Transient.q_cache_misses;
    ]

let test_fast_replay_matches_column_engine () =
  List.iter
    (fun (name, seed) ->
      let model = platform_model_named name in
      let n_blocks = Rcmodel.n_blocks model in
      let rng = Random.State.make [| seed |] in
      List.iter
        (fun skew ->
          let duration, segments = seeded_segments rng ~n_blocks ~n_seg:5 ~skew in
          List.iter
            (fun periods ->
              List.iter
                (fun record ->
                  check_replay_equals_column_engine
                    (Printf.sprintf "%s skew %g periods %d record %b" name skew
                       periods record)
                    model ~duration ~segments ~dt:0.125 ~periods ~record)
                [ false; true ])
            [ 1; 2; 50 ])
        [ 0.0; 0.05 ])
    [ ("std4", 41); ("mixed6", 42) ]

(* Every segment shorter than [dt]: the plan takes remainder steps only,
   so the [dt] propagator is never built, here as before. *)
let test_remainder_only_plan () =
  let model = platform_model_named "mixed6" in
  let rng = Random.State.make [| 43 |] in
  let n_blocks = Rcmodel.n_blocks model in
  let duration = 0.3 in
  let segments =
    List.map
      (fun s -> (s, Array.init n_blocks (fun b -> if b = 1 then 0.0 else Random.State.float rng 9.0)))
      [ 0.0; 0.07; 0.19 ]
  in
  List.iter
    (fun record ->
      check_replay_equals_column_engine
        (Printf.sprintf "remainder-only, record %b" record)
        model ~duration ~segments ~dt:0.5 ~periods:3 ~record)
    [ false; true ];
  let engine = Transient.create (Transient.of_model model) in
  ignore
    (Transient.replay engine
       ~profile:(Transient.profile ~duration ~segments)
       ~t0:(Transient.initial_ambient model) ~dt:0.5 ~periods:3
      : Transient.replay_result);
  let s = Transient.stats engine in
  Alcotest.(check int) "one factorization per step size" 4 s.Transient.factorizations;
  Alcotest.(check int) "a propagator per remainder, none for dt" 3
    s.Transient.propagator_builds

(* --- Validation ----------------------------------------------------------- *)

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_power_callback_length_checked () =
  (* The bugfix: a callback returning the wrong number of entries used to
     read out of bounds (or silently under-inject); now it raises. *)
  let model = platform_model 4 in
  let t0 = Transient.initial_ambient model in
  let bad (_ : float) = [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "rk4 checks the callback" true
    (raises_invalid (fun () ->
         ignore (Transient.rk4 model ~power:bad ~t0 ~dt:1e-3 ~steps:3)));
  Alcotest.(check bool) "backward_euler checks the callback" true
    (raises_invalid (fun () ->
         ignore (Transient.backward_euler model ~power:bad ~t0 ~dt:1e-3 ~steps:3)))

let test_engine_validation () =
  let model = platform_model 4 in
  let engine () = Transient.create (Transient.of_model model) in
  let t0 = Transient.initial_ambient model in
  let p4 = [| 1.0; 1.0; 1.0; 1.0 |] in
  Alcotest.(check bool) "step rejects short power" true
    (raises_invalid (fun () ->
         Transient.step (engine ()) ~dt:1e-3 ~power:[| 1.0 |] (Array.copy t0)));
  Alcotest.(check bool) "step rejects wrong state size" true
    (raises_invalid (fun () ->
         Transient.step (engine ()) ~dt:1e-3 ~power:p4 [| 0.0 |]));
  Alcotest.(check bool) "step rejects dt <= 0" true
    (raises_invalid (fun () ->
         Transient.step (engine ()) ~dt:0.0 ~power:p4 (Array.copy t0)));
  Alcotest.(check bool) "profile rejects late first segment" true
    (raises_invalid (fun () ->
         ignore (Transient.profile ~duration:1.0 ~segments:[ (0.1, p4) ])));
  Alcotest.(check bool) "profile rejects unsorted segments" true
    (raises_invalid (fun () ->
         ignore
           (Transient.profile ~duration:1.0
              ~segments:[ (0.0, p4); (0.6, p4); (0.4, p4) ])));
  Alcotest.(check bool) "profile rejects ragged power vectors" true
    (raises_invalid (fun () ->
         ignore
           (Transient.profile ~duration:1.0
              ~segments:[ (0.0, p4); (0.5, [| 1.0 |]) ])));
  Alcotest.(check bool) "system rejects non-positive capacitance" true
    (raises_invalid (fun () ->
         ignore
           (Transient.system
              ~a:(Matrix.of_arrays [| [| 1.0 |] |])
              ~c:[| 0.0 |] ~base_rhs:[| 0.0 |] ~n_inputs:1)));
  Alcotest.(check bool) "replay rejects wrong t0 size" true
    (raises_invalid (fun () ->
         let profile = Transient.profile ~duration:1.0 ~segments:[ (0.0, p4) ] in
         ignore
           (Transient.replay (engine ()) ~profile ~t0:[| 0.0 |] ~dt:0.1 ~periods:1)))

let test_profile_power_evaluation () =
  let p0 = [| 1.0; 2.0 |] and p1 = [| 3.0; 4.0 |] in
  let profile =
    Transient.profile ~duration:1.0 ~segments:[ (0.0, p0); (0.3, p1) ]
  in
  Alcotest.(check int) "two segments" 2 (Transient.profile_segments profile);
  Alcotest.(check (float 0.0)) "duration" 1.0 (Transient.profile_duration profile);
  Alcotest.(check (array (float 0.0))) "first segment" p0
    (Transient.profile_power profile 0.1);
  Alcotest.(check (array (float 0.0))) "second segment" p1
    (Transient.profile_power profile 0.5);
  Alcotest.(check (array (float 0.0))) "wraps past the period" p0
    (Transient.profile_power profile 1.2)

(* --- Instrumentation ------------------------------------------------------ *)

let test_stats_account_for_work () =
  let model = platform_model 4 in
  let engine = Transient.create (Transient.of_model model) in
  let p = [| 5.0; 8.0; 3.0; 6.0 |] in
  let profile = Transient.profile ~duration:0.5 ~segments:[ (0.0, p) ] in
  let r =
    Transient.replay engine ~profile
      ~t0:(Transient.initial_ambient model)
      ~dt:0.05 ~periods:3
  in
  let s = Transient.stats engine in
  Alcotest.(check int) "steps counted" r.Transient.steps s.Transient.steps;
  Alcotest.(check bool) "factored at least once" true (s.Transient.factorizations >= 1);
  Alcotest.(check bool) "propagator built" true (s.Transient.propagator_builds >= 1);
  (* Repeating a power vector at the same dt must hit the q cache. *)
  let temps = Transient.initial_ambient model in
  Transient.step_fast engine ~dt:0.01 ~power:p temps;
  let before = (Transient.stats engine).Transient.q_cache_hits in
  Transient.step_fast engine ~dt:0.01 ~power:p temps;
  let after = (Transient.stats engine).Transient.q_cache_hits in
  Alcotest.(check int) "repeated power hits the cache" (before + 1) after

(* The q cache answers only its own power vector, bit for bit: a warm
   engine stepping a vector 0.01 nW off an earlier one, on every entry,
   lands bit-equal to a fresh engine's step of that exact vector. *)
let test_step_fast_neighbour_exact () =
  let model = platform_model 4 in
  let p = [| 5.0; 8.0; 3.0; 6.0 |] in
  let near = Array.map (fun x -> x +. 1e-11) p in
  let step_near engine =
    let temps = Transient.initial_ambient model in
    Transient.step_fast engine ~dt:0.01 ~power:near temps;
    Array.map Int64.bits_of_float temps
  in
  let warm = Transient.create (Transient.of_model model) in
  (* The key is a copy: a caller mutating its vector afterwards does not
     move the stored entry. *)
  let scratch = Array.copy p in
  Transient.step_fast warm ~dt:0.01 ~power:scratch (Transient.initial_ambient model);
  Array.fill scratch 0 4 1.0;
  let fresh = Transient.create (Transient.of_model model) in
  Alcotest.(check (array int64)) "neighbour = fresh step" (step_near fresh)
    (step_near warm);
  Alcotest.(check int) "the neighbour missed" 0
    (Transient.stats warm).Transient.q_cache_hits

let () =
  Runner.run "transient"
    [
      ( "closed_form",
        [
          Alcotest.test_case "heating within 1e-6" `Quick test_closed_form_heating;
          Alcotest.test_case "decay is first order" `Quick
            test_closed_form_decay_first_order;
          Alcotest.test_case "scalar recurrence" `Quick
            test_step_matches_scalar_recurrence;
        ] );
      ( "linearity",
        [ Alcotest.test_case "superposition" `Quick test_superposition ] );
      ( "convergence",
        [
          Alcotest.test_case "BE first order, RK4 better" `Quick
            test_integrators_converge;
          Alcotest.test_case "fast path matches exact" `Quick
            test_fast_path_matches_exact;
        ] );
      ( "fixed_point",
        [
          Alcotest.test_case "replay reaches steady" `Quick
            test_replay_endpoint_reaches_steady;
          Alcotest.test_case "recorded trace settles" `Quick
            test_recorded_trace_settles;
        ] );
      ( "differential",
        [
          Alcotest.test_case "replay = manual steps (bitwise)" `Quick
            test_replay_exact_matches_manual_steps;
          Alcotest.test_case "engine = seed stepper (bitwise)" `Quick
            test_engine_bit_identical_to_seed_stepper;
        ] );
      ( "fast_path",
        [
          Alcotest.test_case "kernel = column sweep (bitwise)" `Quick
            test_kernel_matches_column_sweep;
          Alcotest.test_case "replay = column engine (bitwise)" `Quick
            test_fast_replay_matches_column_engine;
          Alcotest.test_case "remainder-only plan (bitwise, lazy)" `Quick
            test_remainder_only_plan;
        ] );
      ( "validation",
        [
          Alcotest.test_case "power callback length" `Quick
            test_power_callback_length_checked;
          Alcotest.test_case "engine arguments" `Quick test_engine_validation;
          Alcotest.test_case "profile evaluation" `Quick
            test_profile_power_evaluation;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "stats account for work" `Quick test_stats_account_for_work;
          Alcotest.test_case "step_fast neighbour is exact" `Quick
            test_step_fast_neighbour_exact;
        ] );
    ]
