(* Metamorphic tests for the thermal stack: relations that must hold between
   *pairs* of solves, without knowing any exact temperature.

   - power-scaling monotonicity: scaling every dynamic power by alpha > 1
     never lowers any block temperature (leakage feedback included);
   - permutation invariance: relabeling the blocks of a placement (same
     geometry, permuted arrays) permutes the temperatures and nothing else;
   - instrumentation transparency: enabling tracing must not perturb a
     single bit of either the fast (Inquiry) or the dense (Steady) path. *)

module Rng = Tats_util.Rng
module Trace = Tats_util.Trace
module Block = Tats_floorplan.Block
module Grid = Tats_floorplan.Grid
module Placement = Tats_floorplan.Placement
module Pe = Tats_techlib.Pe
module Catalog = Tats_techlib.Catalog
module Steady = Tats_thermal.Steady
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry

let platform_hotspot n =
  Hotspot.create
    (Grid.layout
       (Array.map
          (fun (i : Pe.inst) ->
            Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
          (Catalog.platform_instances n)))

let idle4 = [| 0.6; 0.6; 0.6; 0.6 |]

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := Float.max !d (Float.abs (x -. b.(i)))) a;
  !d

(* --- power-scaling monotonicity ------------------------------------------ *)

let test_scaling_monotone () =
  let engine = Hotspot.inquiry (platform_hotspot 4) in
  let rng = Rng.create 805 in
  for trial = 1 to 12 do
    let dynamic = Array.init 4 (fun _ -> Rng.uniform rng 0.0 8.0) in
    let alpha = 1.0 +. (Rng.uniform rng 0.0 2.0) in
    let base = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
    let scaled =
      Inquiry.query_with_leakage engine
        ~dynamic:(Array.map (fun p -> alpha *. p) dynamic)
        ~idle:idle4
    in
    Array.iteri
      (fun i t ->
        (* The fixed point stops within tol of the true solution, so allow
           convergence noise — but never a real drop. *)
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: alpha %.2f never cools block %d" trial
             alpha i)
          true
          (scaled.(i) >= t -. 1e-6))
      base
  done

let test_scaling_monotone_dense () =
  (* Same relation on the dense Steady path — the property is a statement
     about the physics, not about the influence-matrix shortcut. *)
  let solver = Hotspot.solver (platform_hotspot 4) in
  let dynamic = [| 2.0; 6.0; 1.0; 3.0 |] in
  let prev = ref (Array.make 4 neg_infinity) in
  List.iter
    (fun alpha ->
      let t, _ =
        Steady.solve_with_leakage solver
          ~dynamic:(Array.map (fun p -> alpha *. p) dynamic)
          ~idle:idle4
      in
      Array.iteri
        (fun i x ->
          Alcotest.(check bool)
            (Printf.sprintf "alpha %.1f block %d monotone" alpha i)
            true
            (x >= !prev.(i) -. 1e-6))
        t;
      prev := t)
    [ 0.5; 1.0; 1.5; 2.0; 3.0 ]

(* --- permutation invariance ----------------------------------------------- *)

let permute_placement perm (p : Placement.t) =
  Placement.make
    ~blocks:(Array.map (fun i -> p.Placement.blocks.(i)) perm)
    ~rects:(Array.map (fun i -> p.Placement.rects.(i)) perm)

let test_permutation_invariance () =
  let n = 4 in
  let base_placement =
    Grid.layout
      (Array.map
         (fun (i : Pe.inst) ->
           Block.make ~name:(string_of_int i.Pe.inst_id) ~area:i.Pe.kind.Pe.area ())
         (Catalog.platform_instances n))
  in
  let engine = Hotspot.inquiry (Hotspot.create base_placement) in
  let rng = Rng.create 211 in
  (* perm.(k) = original index now sitting at position k. *)
  List.iter
    (fun perm ->
      let permuted =
        Hotspot.inquiry (Hotspot.create (permute_placement perm base_placement))
      in
      for trial = 1 to 4 do
        let dynamic = Array.init n (fun _ -> Rng.uniform rng 0.0 6.0) in
        let t_orig = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
        let t_perm =
          Inquiry.query_with_leakage permuted
            ~dynamic:(Array.map (fun i -> dynamic.(i)) perm)
            ~idle:(Array.map (fun i -> idle4.(i)) perm)
        in
        let expected = Array.map (fun i -> t_orig.(i)) perm in
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: relabeled temps match (diff %.2e)" trial
             (max_abs_diff expected t_perm))
          true
          (max_abs_diff expected t_perm <= 1e-6)
      done)
    [ [| 3; 2; 1; 0 |]; [| 1; 0; 3; 2 |]; [| 2; 3; 0; 1 |]; [| 0; 1; 2; 3 |] ]

(* --- instrumentation transparency ----------------------------------------- *)

let test_tracing_bit_identical () =
  (* Run the fast and dense paths with tracing off, then again on fresh
     engines with tracing on: every temperature must be bit-identical.
     with_span only brackets the computation — any numerical difference
     means instrumentation leaked into the math. *)
  let dynamics =
    [ [| 2.0; 6.0; 1.0; 3.0 |]; [| 0.0; 0.0; 0.0; 0.0 |]; [| 8.0; 0.1; 0.1; 0.1 |] ]
  in
  let solve () =
    let h = platform_hotspot 4 in
    let engine = Hotspot.inquiry h in
    let solver = Hotspot.solver h in
    List.map
      (fun dynamic ->
        let fast = Inquiry.query_with_leakage engine ~dynamic ~idle:idle4 in
        let dense, _ = Steady.solve_with_leakage solver ~dynamic ~idle:idle4 in
        (fast, dense))
      dynamics
  in
  let plain = solve () in
  Trace.start ();
  let traced =
    Fun.protect ~finally:Trace.reset (fun () ->
        let r = solve () in
        Alcotest.(check bool) "spans were actually recorded" true
          (Trace.span_count () > 0);
        r)
  in
  List.iteri
    (fun k ((f0, d0), (f1, d1)) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "inquiry %d: fast path bit-identical" k)
        0.0 (max_abs_diff f0 f1);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "inquiry %d: dense path bit-identical" k)
        0.0 (max_abs_diff d0 d1))
    (List.combine plain traced)

let () =
  Runner.run "thermal_meta"
    [
      ( "scaling",
        [
          Alcotest.test_case "alpha > 1 never cools (fast path)" `Quick
            test_scaling_monotone;
          Alcotest.test_case "monotone in alpha (dense path)" `Quick
            test_scaling_monotone_dense;
        ] );
      ( "permutation",
        [
          Alcotest.test_case "block relabeling permutes temps" `Quick
            test_permutation_invariance;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "tracing on/off bit-identical" `Quick
            test_tracing_bit_identical;
        ] );
    ]
