(* Tests for Tats_thermal: the compact RC model, steady-state solver,
   leakage fixed point, transient integrators, grid model, HotSpot facade.

   Several tests exploit exact conservation laws of the network: in steady
   state all injected power leaves through the convection resistance, so
   T_sink = T_amb + R_conv * P_total regardless of the floorplan. *)

module Block = Tats_floorplan.Block
module Placement = Tats_floorplan.Placement
module Grid = Tats_floorplan.Grid
module Package = Tats_thermal.Package
module Rcmodel = Tats_thermal.Rcmodel
module Steady = Tats_thermal.Steady
module Transient = Tats_thermal.Transient
module Gridmodel = Tats_thermal.Gridmodel
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry
module Matrix = Tats_linalg.Matrix
module Stats = Tats_util.Stats

let pkg = Package.default

let platform_placement n =
  Grid.layout
    (Array.init n (fun i ->
         Block.make ~name:(Printf.sprintf "pe%d" i) ~area:1.6e-5 ()))

let single_block_placement () =
  Placement.make
    ~blocks:[| Block.make ~name:"b" ~area:1.6e-5 () |]
    ~rects:[| { Block.x = 0.0; y = 0.0; w = 4e-3; h = 4e-3 } |]

(* --- Package ------------------------------------------------------------ *)

let test_vertical_resistance_decreases_with_area () =
  let r_small = Package.block_vertical_resistance pkg ~area:1e-6 in
  let r_big = Package.block_vertical_resistance pkg ~area:1e-4 in
  Alcotest.(check bool) "bigger blocks conduct better" true (r_big < r_small)

let test_lateral_conductance () =
  Alcotest.(check (float 1e-12)) "no contact" 0.0
    (Package.lateral_conductance pkg ~shared_len:0.0 ~distance:1e-3);
  let g = Package.lateral_conductance pkg ~shared_len:4e-3 ~distance:4e-3 in
  Alcotest.(check (float 1e-9)) "k*t*L/d" (pkg.Package.k_die *. pkg.Package.die_thickness) g

(* --- Rcmodel ------------------------------------------------------------ *)

let test_model_shape () =
  let m = Rcmodel.build pkg (platform_placement 4) in
  Alcotest.(check int) "blocks" 4 (Rcmodel.n_blocks m);
  Alcotest.(check int) "nodes" 6 (Rcmodel.n_nodes m);
  Alcotest.(check int) "spreader" 4 (Rcmodel.spreader_node m);
  Alcotest.(check int) "sink" 5 (Rcmodel.sink_node m)

let test_system_matrix_symmetric () =
  let m = Rcmodel.build pkg (platform_placement 4) in
  let a = Rcmodel.system_matrix m in
  Alcotest.(check (float 1e-12)) "symmetric" 0.0 (Matrix.max_abs_diff a (Matrix.transpose a))

let test_lateral_only_between_neighbours () =
  (* On a 2x2 grid, blocks 0 and 3 touch only at a corner. *)
  let m = Rcmodel.build pkg (platform_placement 4) in
  Alcotest.(check bool) "0-1 coupled" true (Rcmodel.lateral_conductance_between m 0 1 > 0.0);
  Alcotest.(check bool) "0-2 coupled" true (Rcmodel.lateral_conductance_between m 0 2 > 0.0);
  Alcotest.(check (float 1e-15)) "0-3 diagonal uncoupled" 0.0
    (Rcmodel.lateral_conductance_between m 0 3)

let test_capacitances_positive () =
  let m = Rcmodel.build pkg (platform_placement 4) in
  Array.iter
    (fun c -> Alcotest.(check bool) "positive C" true (c > 0.0))
    (Rcmodel.capacitances m)

let test_rhs_validation () =
  let m = Rcmodel.build pkg (platform_placement 4) in
  Alcotest.(check bool) "wrong length" true
    (try ignore (Rcmodel.rhs m ~power:[| 1.0 |] : float array); false
     with Invalid_argument _ -> true)

(* --- Steady ------------------------------------------------------------- *)

let test_zero_power_is_ambient () =
  let s = Steady.create (Rcmodel.build pkg (platform_placement 4)) in
  let temps = Steady.solve s ~power:(Array.make 4 0.0) in
  Array.iter
    (fun t -> Alcotest.(check (float 1e-6)) "ambient everywhere" pkg.Package.ambient t)
    temps

let test_energy_conservation_at_sink () =
  (* All heat exits through R_conv: T_sink - T_amb = R_conv * P_total. *)
  let model = Rcmodel.build pkg (platform_placement 4) in
  let s = Steady.create model in
  let power = [| 3.0; 1.0; 2.0; 4.0 |] in
  let temps = Steady.solve s ~power in
  let t_sink = temps.(Rcmodel.sink_node model) in
  Alcotest.(check (float 1e-6)) "sink temperature"
    (pkg.Package.ambient +. (pkg.Package.r_convection *. 10.0))
    t_sink

let test_single_block_analytic () =
  (* One block: T = amb + (R_conv + R_sp_sink + R_v) * P exactly. *)
  let placement = single_block_placement () in
  let model = Rcmodel.build pkg placement in
  let s = Steady.create model in
  let area = Block.rect_area placement.Placement.rects.(0) in
  let r_total =
    pkg.Package.r_convection +. pkg.Package.r_spreader_sink
    +. Package.block_vertical_resistance pkg ~area
  in
  let temps = Steady.block_temperatures s ~power:[| 5.0 |] in
  Alcotest.(check (float 1e-6)) "analytic" (pkg.Package.ambient +. (5.0 *. r_total)) temps.(0)

let test_linearity_superposition () =
  let s = Steady.create (Rcmodel.build pkg (platform_placement 4)) in
  let p1 = [| 2.0; 0.0; 0.0; 0.0 |] and p2 = [| 0.0; 0.0; 3.0; 0.0 |] in
  let both = Array.init 4 (fun i -> p1.(i) +. p2.(i)) in
  let t1 = Steady.block_temperatures s ~power:p1 in
  let t2 = Steady.block_temperatures s ~power:p2 in
  let t12 = Steady.block_temperatures s ~power:both in
  for i = 0 to 3 do
    (* Superposition holds after subtracting the ambient offset. *)
    Alcotest.(check (float 1e-6)) "superposition"
      (t1.(i) +. t2.(i) -. pkg.Package.ambient)
      t12.(i)
  done

let test_heated_block_is_hottest () =
  let s = Steady.create (Rcmodel.build pkg (platform_placement 4)) in
  let temps = Steady.block_temperatures s ~power:[| 0.0; 8.0; 0.0; 0.0 |] in
  Alcotest.(check int) "hottest is the heated one" 1 (Stats.argmax temps)

let test_neighbour_warmer_than_ambient () =
  let s = Steady.create (Rcmodel.build pkg (platform_placement 4)) in
  let temps = Steady.block_temperatures s ~power:[| 0.0; 8.0; 0.0; 0.0 |] in
  Array.iter
    (fun t -> Alcotest.(check bool) "coupling heats everyone" true (t > pkg.Package.ambient))
    temps

let test_monotone_in_power () =
  let s = Steady.create (Rcmodel.build pkg (platform_placement 4)) in
  let t_low = Steady.block_temperatures s ~power:(Array.make 4 2.0) in
  let t_high = Steady.block_temperatures s ~power:(Array.make 4 4.0) in
  for i = 0 to 3 do
    Alcotest.(check bool) "more power, hotter" true (t_high.(i) > t_low.(i))
  done

let test_negative_power_rejected () =
  let s = Steady.create (Rcmodel.build pkg (platform_placement 2)) in
  Alcotest.(check bool) "negative rejected" true
    (try ignore (Steady.solve s ~power:[| -1.0; 0.0 |] : float array); false
     with Invalid_argument _ -> true)

let test_leakage_raises_temperature () =
  let s = Steady.create (Rcmodel.build pkg (platform_placement 4)) in
  let dynamic = Array.make 4 3.0 in
  let no_leak = Steady.block_temperatures s ~power:dynamic in
  let with_leak, iters =
    Steady.solve_with_leakage s ~dynamic ~idle:(Array.make 4 0.5)
  in
  Alcotest.(check bool) "converged" true (iters > 0);
  for i = 0 to 3 do
    Alcotest.(check bool) "leakage adds heat" true (with_leak.(i) > no_leak.(i))
  done

let test_leakage_zero_idle_matches_linear () =
  let s = Steady.create (Rcmodel.build pkg (platform_placement 4)) in
  let dynamic = [| 1.0; 2.0; 3.0; 4.0 |] in
  let linear = Steady.block_temperatures s ~power:dynamic in
  let with_leak, _ = Steady.solve_with_leakage s ~dynamic ~idle:(Array.make 4 0.0) in
  for i = 0 to 3 do
    Alcotest.(check (float 1e-4)) "no idle, no feedback" linear.(i) with_leak.(i)
  done

let test_leakage_hot_design_converges () =
  (* The exponential is clamped; even absurd power must converge. *)
  let s = Steady.create (Rcmodel.build pkg (platform_placement 4)) in
  let temps, _ = Steady.solve_with_leakage s ~dynamic:(Array.make 4 20.0) ~idle:(Array.make 4 1.0) in
  Array.iter (fun t -> Alcotest.(check bool) "finite" true (Float.is_finite t)) temps

(* The fixed point over [s]'s dense solve. *)
let dense_fixed_point ?max_iter ?init ?stop s ~dynamic ~idle =
  let solve power dst =
    Array.blit (Steady.block_temperatures s ~power) 0 dst 0 (Array.length dst)
  in
  Steady.fixed_point ?max_iter ?init ?stop ~package:pkg ~solve ~dynamic ~idle ()

(* A [stop] test that holds from its [k + 1]-th question on: the iteration
   stops after [k] steps. *)
let stop_after k =
  let asked = ref 0 in
  fun _ ->
    incr asked;
    !asked > k

let hex = Printf.sprintf "%h"

let same_floats what a b =
  Alcotest.(check (array string)) what (Array.map hex a) (Array.map hex b)

let test_leakage_runaway_is_typed () =
  (* One damped step cannot settle a leaky design: the fixed point gives
     up with the typed error, on the dense and the inquiry path alike. *)
  let s = Steady.create (Rcmodel.build pkg (platform_placement 4)) in
  let dynamic = Array.make 4 3.0 and idle = Array.make 4 0.5 in
  let expect_runaway what f =
    match f () with
    | (_ : float array) -> Alcotest.failf "%s: expected Steady.Runaway" what
    | exception (Steady.Runaway { iterations; residual } as e) ->
        Alcotest.(check int) (what ^ ": iterations") 1 iterations;
        Alcotest.(check bool) (what ^ ": residual above tol") true
          (residual > 1e-6);
        Alcotest.(check bool) (what ^ ": printed as a runaway") true
          (String.starts_with ~prefix:"thermal runaway" (Printexc.to_string e))
  in
  expect_runaway "dense" (fun () ->
      fst (Steady.solve_with_leakage ~max_iter:1 s ~dynamic ~idle));
  expect_runaway "inquiry" (fun () ->
      Tats_thermal.Inquiry.query_with_leakage ~max_iter:1
        (Tats_thermal.Inquiry.create s) ~dynamic ~idle);
  (* Across a resume the error is the uninterrupted run's, residual
     included: stopped after [k] steps and resumed under [max_iter] [m],
     the iteration gives up at step [m] with step [m]'s residual, for
     every [k < m] and for [m = k], where the resumed iterate itself is
     the one it gives up on. *)
  let runaway ?init ~max_iter () =
    match dense_fixed_point ~max_iter ?init s ~dynamic ~idle with
    | (_ : Steady.iterate) -> Alcotest.failf "max_iter %d: no runaway" max_iter
    | exception Steady.Runaway { iterations; residual } ->
        (iterations, hex residual)
  in
  let m = 6 in
  for k = 0 to m do
    let stopped = dense_fixed_point ~stop:(stop_after k) s ~dynamic ~idle in
    Alcotest.(check int) (Printf.sprintf "stopped after %d steps" k) k
      stopped.Steady.steps;
    let what max_iter = Printf.sprintf "stopped at %d, max_iter %d" k max_iter in
    if k < m then
      Alcotest.(check (pair int string)) (what m) (runaway ~max_iter:m ())
        (runaway ~init:stopped ~max_iter:m ());
    Alcotest.(check (pair int string)) (what k) (runaway ~max_iter:k ())
      (runaway ~init:stopped ~max_iter:k ())
  done

(* The leakage inquiries of three steps of each benchmark's Baseline
   schedule on each builtin platform (Bm1-Bm4 x std4, biglittle4,
   mixed6): the engine, the committed PE energies, the horizon (the candidate's finish), the candidate PE and
   task power, and the idle powers. *)
let step_inquiries () =
  List.concat_map
    (fun name ->
      let p = Option.get (Tats_techlib.Catalog.platform_named name) in
      let lib = Tats_techlib.Catalog.library_for p in
      let pes = Tats_techlib.Platform.instances p in
      let module Pe = Tats_techlib.Pe in
      let engine =
        Hotspot.inquiry
          (Hotspot.create
             (Grid.layout
                (Array.map
                   (fun (i : Pe.inst) ->
                     Block.make ~name:(string_of_int i.Pe.inst_id)
                       ~area:i.Pe.kind.Pe.area ())
                   pes)))
      in
      let idle = Array.map (fun (i : Pe.inst) -> i.Pe.kind.Pe.idle_power) pes in
      List.concat_map
        (fun graph ->
          let module Schedule = Tats_sched.Schedule in
          let schedule =
            Tats_sched.List_sched.run ~graph ~lib ~pes
              ~policy:Tats_sched.Policy.Baseline ()
          in
          let order = Array.copy schedule.Schedule.entries in
          Array.stable_sort
            (fun (a : Schedule.entry) b -> compare a.Schedule.start b.Schedule.start)
            order;
          let n = Array.length order in
          List.map
            (fun k ->
              let energy = Array.make (Array.length pes) 0.0 in
              for j = 0 to k - 1 do
                let e = order.(j) in
                energy.(e.Schedule.pe) <- energy.(e.Schedule.pe) +. e.Schedule.energy
              done;
              let e = order.(k) in
              let what =
                Printf.sprintf "%s/%s/step %d" (Tats_taskgraph.Graph.name graph)
                  name k
              in
              ( what,
                engine,
                energy,
                e.Schedule.finish,
                e.Schedule.pe,
                e.Schedule.energy /. (e.Schedule.finish -. e.Schedule.start),
                idle ))
            [ 0; n / 3; 2 * n / 3 ])
        (Array.to_list (Tats_taskgraph.Benchmarks.all ())))
    [ "std4"; "biglittle4"; "mixed6" ]

let h_fp_iterations = Tats_util.Metricsreg.histogram "steady.fp_iterations"

(* The linear seed [Inquiry.ask] starts a step inquiry from, by the same
   per-block expression, computed here from the influence columns. *)
let linear_seed engine ~energy ~horizon ~pe ~extra =
  let n = Inquiry.n_blocks engine in
  let ambient = (Inquiry.package engine).Package.ambient in
  let cols = Array.init n (Inquiry.influence_column engine) in
  let response = Array.make n 0.0 in
  Array.iteri
    (fun j pj ->
      if pj <> 0.0 then
        for i = 0 to n - 1 do
          response.(i) <- response.(i) +. (pj *. cols.(j).(i))
        done)
    energy;
  Array.init n (fun i ->
      ambient +. (response.(i) /. horizon) +. (extra *. cols.(pe).(i)))

(* Stopped after any [k] steps and resumed, the fixed point runs the
   uninterrupted trajectory bit for bit: on [Steady.fixed_point] with an
   explicit [init], and on [Inquiry.ask] through a step table's slot,
   whose counters then count each step once. A zero-step answer (a
   stopped iterate [stop] holds of, or a converged slot) runs no fixed
   point. *)
let test_leakage_resume_is_exact () =
  let fp_runs () = (Tats_util.Metricsreg.summary h_fp_iterations).count in
  List.iter
    (fun (what, engine, energy, horizon, pe, extra, idle) ->
      let solver = Inquiry.solver engine in
      let dynamic =
        Array.mapi
          (fun i p -> (p /. horizon) +. if i = pe then extra else 0.0)
          energy
      in
      let fixed_point ?init ?stop () =
        Steady.fixed_point ?init ?stop ~package:(Inquiry.package engine)
          ~solve:(fun power dst ->
            Array.blit (Inquiry.temperatures engine ~power) 0 dst 0
              (Array.length dst))
          ~dynamic ~idle ()
      in
      (* The trajectory from the engine's seed: the seed, every iterate
         [stop] is asked of, then the result. *)
      let seed = linear_seed engine ~energy ~horizon ~pe ~extra in
      let iterates = ref [] in
      let result =
        fixed_point ~init:(Steady.seed seed)
          ~stop:(fun t ->
            iterates := Array.copy t :: !iterates;
            false)
          ()
      in
      let trajectory = Array.of_list (seed :: List.rev !iterates) in
      let means = Array.map Stats.mean trajectory in
      let steps = Array.length trajectory in
      Alcotest.(check bool) (what ^ ": iterates") true (steps > 1);
      Alcotest.(check int) (what ^ ": one iterate per step") steps
        result.Steady.steps;
      for k = 0 to steps - 1 do
        let what = Printf.sprintf "%s, stopped at %d" what k in
        let e = Inquiry.create solver in
        let tally = Inquiry.tally () and slots = [| Inquiry.no_slot |] in
        let ask ?stop () =
          Inquiry.ask ?stop e (Inquiry.step e ~power:energy ~idle) tally ~slots 0
            ~horizon ~pe ~extra
        in
        Alcotest.(check string) (what ^ ": stopped mean") (hex means.(k))
          (hex (ask ~stop:(stop_after k) ()));
        (match Inquiry.iterate slots.(0) with
        | None -> Alcotest.(check int) (what ^ ": no slot at the seed") 0 k
        | Some it ->
            same_floats (what ^ ": stored iterate") trajectory.(k) it.Steady.temps;
            Alcotest.(check int) (what ^ ": stored steps") k it.Steady.steps);
        (* Stopped again where it stands: a hit, no step, and no fixed
           point run: [stop] is asked once and [steady.fp_iterations]
           records nothing. *)
        if k > 0 then begin
          let asked = ref 0 in
          let runs = fp_runs () in
          Alcotest.(check string) (what ^ ": hit") (hex means.(k))
            (hex (ask ~stop:(fun _ -> incr asked; true) ()));
          Alcotest.(check (list int))
            (what ^ ": hit asks stop once, runs no fixed point")
            [ 1; runs ] [ !asked; fp_runs () ]
        end;
        let tail = ref [] in
        Alcotest.(check string) (what ^ ": resumed") (hex (Stats.mean result.Steady.temps))
          (hex (ask ~stop:(fun m -> tail := m :: !tail; false) ()));
        Alcotest.(check (list string)) (what ^ ": each iterate asked once")
          (List.map hex (Array.to_list (Array.sub means k (steps - k))))
          (List.rev_map hex !tail);
        (* Converged: answered without a step or a question. *)
        let runs = fp_runs () in
        Alcotest.(check string) (what ^ ": converged hit")
          (hex (Stats.mean result.Steady.temps))
          (hex (ask ~stop:(fun _ -> Alcotest.failf "%s: stop asked" what) ()));
        Alcotest.(check int) (what ^ ": converged hit runs no fixed point") runs
          (fp_runs ());
        (* Each step runs once; the dense path would have paid, per
           inquiry, its seed solve and every step up to the iterate it
           returned. *)
        Inquiry.flush e tally;
        let s = Inquiry.stats e in
        Alcotest.(check (list int))
          (what ^ ": inquiries, hits, fp_iterations, dense_solves")
          [
            (if k > 0 then 4 else 3);
            (if k > 0 then 2 else 1);
            steps;
            (1 + k) + (if k > 0 then 1 + k else 0) + (2 * (1 + steps));
          ]
          [
            s.Inquiry.inquiries;
            s.Inquiry.cache_hits;
            s.Inquiry.fp_iterations;
            s.Inquiry.dense_solves;
          ]
      done;
      (* The bare fixed point, from its own linear seed, resumed from an
         explicit [init]: same iterate, step count and residual. *)
      let full = fixed_point () in
      for k = 0 to full.Steady.steps - 1 do
        let what = Printf.sprintf "%s, fixed point stopped at %d" what k in
        let resumed = fixed_point ~init:(fixed_point ~stop:(stop_after k) ()) () in
        same_floats what full.Steady.temps resumed.Steady.temps;
        Alcotest.(check (pair int string)) (what ^ ": steps, residual")
          (full.Steady.steps, hex full.Steady.residual)
          (resumed.Steady.steps, hex resumed.Steady.residual)
      done)
    (step_inquiries ())

(* --- Transient ---------------------------------------------------------- *)

let test_transient_converges_to_steady () =
  let model = Rcmodel.build pkg (platform_placement 4) in
  let s = Steady.create model in
  let power _ = [| 2.0; 4.0; 1.0; 3.0 |] in
  let steady = Steady.solve s ~power:(power 0.0) in
  let t0 = Transient.initial_ambient model in
  (* The sink time constant is ~70 s, so simulate several of them. *)
  let trace = Transient.backward_euler model ~power ~t0 ~dt:1.0 ~steps:600 in
  let final = trace.Transient.temps.(600) in
  Array.iteri
    (fun i t -> Alcotest.(check bool) "near steady" true (Float.abs (t -. steady.(i)) < 0.5))
    final

let test_rk4_matches_backward_euler () =
  let model = Rcmodel.build pkg (platform_placement 2) in
  let power _ = [| 3.0; 1.0 |] in
  let t0 = Transient.initial_ambient model in
  (* Small dt keeps the explicit integrator stable (block tau ~ 70 ms). *)
  let rk = Transient.rk4 model ~power ~t0 ~dt:0.002 ~steps:500 in
  let be = Transient.backward_euler model ~power ~t0 ~dt:0.002 ~steps:500 in
  let last a = a.Transient.temps.(500) in
  Array.iteri
    (fun i t ->
      Alcotest.(check bool) "integrators agree" true (Float.abs (t -. (last be).(i)) < 0.1))
    (last rk)

let test_transient_monotone_heating () =
  let model = Rcmodel.build pkg (platform_placement 2) in
  let power _ = [| 5.0; 5.0 |] in
  let t0 = Transient.initial_ambient model in
  let trace = Transient.backward_euler model ~power ~t0 ~dt:0.1 ~steps:100 in
  let ok = ref true in
  for k = 1 to 100 do
    if trace.Transient.temps.(k).(0) < trace.Transient.temps.(k - 1).(0) -. 1e-9 then
      ok := false
  done;
  Alcotest.(check bool) "monotone step response" true !ok

let test_settle_time () =
  let model = Rcmodel.build pkg (platform_placement 2) in
  let s = Steady.create model in
  let power _ = [| 2.0; 2.0 |] in
  let steady = Steady.solve s ~power:(power 0.0) in
  let t0 = Transient.initial_ambient model in
  let trace = Transient.backward_euler model ~power ~t0 ~dt:0.5 ~steps:400 in
  match Transient.settle_time trace ~steady ~tol:1.0 with
  | Some t ->
      Alcotest.(check bool) "settles strictly after start" true (t > 0.0);
      Alcotest.(check bool) "settles before the end" true (t < 200.0)
  | None -> Alcotest.fail "never settled"

let test_transient_validation () =
  let model = Rcmodel.build pkg (platform_placement 2) in
  Alcotest.(check bool) "bad dt" true
    (try
       ignore
         (Transient.backward_euler model ~power:(fun _ -> [| 0.0; 0.0 |])
            ~t0:(Transient.initial_ambient model) ~dt:0.0 ~steps:1
          : Transient.trace);
       false
     with Invalid_argument _ -> true)

(* --- Gridmodel ---------------------------------------------------------- *)

let test_grid_close_to_compact () =
  (* Same physics at a finer discretization: block temperatures should agree
     with the compact model within a few degrees. *)
  let placement = platform_placement 4 in
  let compact = Steady.create (Rcmodel.build pkg placement) in
  let grid = Gridmodel.build ~nx:16 ~ny:16 pkg placement in
  let power = [| 2.0; 6.0; 1.0; 3.0 |] in
  let t_compact = Steady.block_temperatures compact ~power in
  let t_grid = Gridmodel.block_temperatures grid ~power in
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "block %d within 5C (%.2f vs %.2f)" i t_compact.(i) t_grid.(i))
      true
      (Float.abs (t_compact.(i) -. t_grid.(i)) < 5.0)
  done

let test_grid_hotspot_location () =
  let placement = platform_placement 4 in
  let grid = Gridmodel.build ~nx:8 ~ny:8 pkg placement in
  let t = Gridmodel.block_temperatures grid ~power:[| 0.0; 9.0; 0.0; 0.0 |] in
  Alcotest.(check int) "hottest block" 1 (Stats.argmax t)

let test_grid_peak_above_block_mean () =
  let placement = platform_placement 4 in
  let grid = Gridmodel.build ~nx:8 ~ny:8 pkg placement in
  let power = [| 1.0; 6.0; 2.0; 1.0 |] in
  let peak = Gridmodel.max_cell_temperature grid ~power in
  let blocks = Gridmodel.block_temperatures grid ~power in
  Alcotest.(check bool) "peak >= any block mean" true (peak >= Stats.max blocks -. 1e-9)

let test_grid_cell_matrix_shape () =
  let placement = platform_placement 4 in
  let grid = Gridmodel.build ~nx:6 ~ny:4 pkg placement in
  Alcotest.(check int) "cells" 24 (Gridmodel.n_cells grid);
  let cells = Gridmodel.cell_temperatures grid ~power:(Array.make 4 1.0) in
  Alcotest.(check int) "rows" 4 (Array.length cells);
  Alcotest.(check int) "cols" 6 (Array.length cells.(0))

(* --- Hotspot facade ----------------------------------------------------- *)

let test_hotspot_counts_inquiries () =
  let h = Hotspot.create (platform_placement 4) in
  Alcotest.(check int) "fresh" 0 (Hotspot.inquiries h);
  ignore (Hotspot.query h ~power:(Array.make 4 1.0) : float array);
  ignore (Hotspot.average_temperature h ~power:(Array.make 4 1.0) : float);
  Alcotest.(check int) "counted" 2 (Hotspot.inquiries h)

let test_hotspot_avg_peak_consistent () =
  let h = Hotspot.create (platform_placement 4) in
  let power = [| 1.0; 5.0; 2.0; 2.0 |] in
  let temps = Hotspot.query h ~power in
  Alcotest.(check (float 1e-9)) "avg" (Stats.mean temps)
    (Hotspot.average_temperature h ~power);
  Alcotest.(check (float 1e-9)) "peak" (Stats.max temps) (Hotspot.peak_temperature h ~power)

let () =
  Runner.run "tats_thermal"
    [
      ( "package",
        [
          Alcotest.test_case "vertical R vs area" `Quick
            test_vertical_resistance_decreases_with_area;
          Alcotest.test_case "lateral conductance" `Quick test_lateral_conductance;
        ] );
      ( "rcmodel",
        [
          Alcotest.test_case "shape" `Quick test_model_shape;
          Alcotest.test_case "symmetric" `Quick test_system_matrix_symmetric;
          Alcotest.test_case "neighbour coupling" `Quick
            test_lateral_only_between_neighbours;
          Alcotest.test_case "capacitances" `Quick test_capacitances_positive;
          Alcotest.test_case "rhs validation" `Quick test_rhs_validation;
        ] );
      ( "steady",
        [
          Alcotest.test_case "zero power" `Quick test_zero_power_is_ambient;
          Alcotest.test_case "conservation at sink" `Quick
            test_energy_conservation_at_sink;
          Alcotest.test_case "single block analytic" `Quick test_single_block_analytic;
          Alcotest.test_case "superposition" `Quick test_linearity_superposition;
          Alcotest.test_case "hottest block" `Quick test_heated_block_is_hottest;
          Alcotest.test_case "coupling" `Quick test_neighbour_warmer_than_ambient;
          Alcotest.test_case "monotone in power" `Quick test_monotone_in_power;
          Alcotest.test_case "negative power" `Quick test_negative_power_rejected;
        ] );
      ( "leakage",
        [
          Alcotest.test_case "raises temperature" `Quick test_leakage_raises_temperature;
          Alcotest.test_case "zero idle = linear" `Quick
            test_leakage_zero_idle_matches_linear;
          Alcotest.test_case "hot design converges" `Quick
            test_leakage_hot_design_converges;
          Alcotest.test_case "runaway is typed" `Quick
            test_leakage_runaway_is_typed;
          Alcotest.test_case "resuming is exact" `Quick
            test_leakage_resume_is_exact;
        ] );
      ( "transient",
        [
          Alcotest.test_case "converges to steady" `Quick
            test_transient_converges_to_steady;
          Alcotest.test_case "rk4 vs backward euler" `Quick test_rk4_matches_backward_euler;
          Alcotest.test_case "monotone heating" `Quick test_transient_monotone_heating;
          Alcotest.test_case "settle time" `Quick test_settle_time;
          Alcotest.test_case "validation" `Quick test_transient_validation;
        ] );
      ( "gridmodel",
        [
          Alcotest.test_case "close to compact" `Quick test_grid_close_to_compact;
          Alcotest.test_case "hotspot location" `Quick test_grid_hotspot_location;
          Alcotest.test_case "peak above mean" `Quick test_grid_peak_above_block_mean;
          Alcotest.test_case "cell matrix shape" `Quick test_grid_cell_matrix_shape;
        ] );
      ( "hotspot",
        [
          Alcotest.test_case "inquiry counter" `Quick test_hotspot_counts_inquiries;
          Alcotest.test_case "avg/peak consistent" `Quick test_hotspot_avg_peak_consistent;
        ] );
    ]
