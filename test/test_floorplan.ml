(* Tests for Tats_floorplan: rectangle geometry, slicing-tree evaluation,
   the GA floorplanner, grid layouts. *)

module Block = Tats_floorplan.Block
module Placement = Tats_floorplan.Placement
module Slicing = Tats_floorplan.Slicing
module Ga = Tats_floorplan.Ga
module Grid = Tats_floorplan.Grid
module Rng = Tats_util.Rng

let rect x y w h = { Block.x; y; w; h }
let check_float = Alcotest.(check (float 1e-9))

(* --- Block geometry ----------------------------------------------------- *)

let test_rect_basics () =
  let r = rect 1.0 2.0 3.0 4.0 in
  check_float "area" 12.0 (Block.rect_area r);
  let cx, cy = Block.rect_center r in
  check_float "cx" 2.5 cx;
  check_float "cy" 4.0 cy

let test_overlap_area () =
  check_float "disjoint" 0.0 (Block.overlap_area (rect 0. 0. 1. 1.) (rect 2. 2. 1. 1.));
  check_float "quarter" 0.25
    (Block.overlap_area (rect 0. 0. 1. 1.) (rect 0.5 0.5 1. 1.));
  check_float "contained" 1.0 (Block.overlap_area (rect 0. 0. 2. 2.) (rect 0.5 0.5 1. 1.))

let test_shared_boundary_vertical () =
  (* Two unit squares side by side share a full vertical edge. *)
  check_float "full edge" 1.0 (Block.shared_boundary (rect 0. 0. 1. 1.) (rect 1. 0. 1. 1.));
  (* Offset by half: only half the edge is common. *)
  check_float "half edge" 0.5
    (Block.shared_boundary (rect 0. 0. 1. 1.) (rect 1. 0.5 1. 1.))

let test_shared_boundary_horizontal () =
  check_float "stacked" 1.0 (Block.shared_boundary (rect 0. 0. 1. 1.) (rect 0. 1. 1. 1.))

let test_shared_boundary_none () =
  check_float "gap" 0.0 (Block.shared_boundary (rect 0. 0. 1. 1.) (rect 1.5 0. 1. 1.));
  (* Corner contact has zero-length boundary. *)
  check_float "corner" 0.0 (Block.shared_boundary (rect 0. 0. 1. 1.) (rect 1. 1. 1. 1.))

let test_center_distance () =
  check_float "3-4-5" 5.0 (Block.center_distance (rect 0. 0. 2. 2.) (rect 3. 4. 2. 2.))

let test_block_validation () =
  let bad f = try ignore (f () : Block.t); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero area" true
    (bad (fun () -> Block.make ~name:"b" ~area:0.0 ()));
  Alcotest.(check bool) "bad aspects" true
    (bad (fun () -> Block.make ~name:"b" ~area:1.0 ~min_aspect:2.0 ~max_aspect:1.0 ()))

(* --- Slicing ------------------------------------------------------------ *)

let blocks n = Array.init n (fun i -> Block.make ~name:(Printf.sprintf "b%d" i) ~area:1e-6 ())

let test_validate_initial () =
  for n = 1 to 8 do
    match Slicing.validate ~n_blocks:n (Slicing.initial n) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "initial %d invalid: %s" n e
  done

let test_validate_rejects () =
  let bad expr = Slicing.validate ~n_blocks:2 expr <> Ok () in
  Alcotest.(check bool) "wrong length" true (bad [| Slicing.Op 0 |]);
  Alcotest.(check bool) "repeated operand" true
    (bad [| Slicing.Op 0; Slicing.Op 0; Slicing.V |]);
  Alcotest.(check bool) "balloting" true (bad [| Slicing.Op 0; Slicing.V; Slicing.Op 1 |]);
  Alcotest.(check bool) "out of range" true
    (bad [| Slicing.Op 0; Slicing.Op 5; Slicing.V |])

let test_evaluate_two_blocks_v () =
  let bs = blocks 2 in
  let p = Slicing.evaluate bs [| Slicing.Op 0; Slicing.Op 1; Slicing.V |] in
  Alcotest.(check bool) "no overlap" false (Placement.has_overlap p);
  (* V places side by side: total width is the sum at equal heights. *)
  let r0 = p.Placement.rects.(0) and r1 = p.Placement.rects.(1) in
  Alcotest.(check bool) "b1 right of b0" true (r1.Block.x >= r0.Block.x +. r0.Block.w -. 1e-12)

let test_evaluate_two_blocks_h () =
  let bs = blocks 2 in
  let p = Slicing.evaluate bs [| Slicing.Op 0; Slicing.Op 1; Slicing.H |] in
  let r0 = p.Placement.rects.(0) and r1 = p.Placement.rects.(1) in
  Alcotest.(check bool) "b1 above b0" true (r1.Block.y >= r0.Block.y +. r0.Block.h -. 1e-12)

let test_evaluate_preserves_areas () =
  let bs = blocks 5 in
  let p = Slicing.evaluate bs (Slicing.initial 5) in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "area preserved" true
        (Float.abs (Block.rect_area r -. bs.(i).Block.area) < 1e-12))
    p.Placement.rects

let test_evaluate_respects_aspect_bounds () =
  let bs =
    Array.init 3 (fun i ->
        Block.make ~name:(string_of_int i) ~area:2e-6 ~min_aspect:0.5 ~max_aspect:2.0 ())
  in
  let p = Slicing.evaluate bs (Slicing.initial 3) in
  Array.iter
    (fun r ->
      let aspect = r.Block.w /. r.Block.h in
      Alcotest.(check bool) "aspect in bounds" true (aspect >= 0.49 && aspect <= 2.01))
    p.Placement.rects

let test_evaluate_rejects_invalid () =
  Alcotest.(check bool) "invalid expr" true
    (try
       ignore (Slicing.evaluate (blocks 2) [| Slicing.Op 0; Slicing.V; Slicing.Op 1 |]
               : Placement.t);
       false
     with Invalid_argument _ -> true)

let prop_random_exprs_valid =
  QCheck.Test.make ~name:"random expressions validate and evaluate overlap-free"
    ~count:100
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 11) in
      let expr = Slicing.random rng n in
      match Slicing.validate ~n_blocks:n expr with
      | Error _ -> false
      | Ok () ->
          let p = Slicing.evaluate (blocks n) expr in
          not (Placement.has_overlap p))

(* --- Placement ---------------------------------------------------------- *)

let test_placement_die_and_dead_space () =
  let bs = blocks 2 in
  let p =
    Placement.make ~blocks:bs ~rects:[| rect 0. 0. 1e-3 1e-3; rect 1e-3 0. 1e-3 1e-3 |]
  in
  check_float "die w" 2e-3 p.Placement.die_w;
  check_float "die h" 1e-3 p.Placement.die_h;
  (* blocks are 1e-6 each, die is 2e-6: zero dead space. *)
  check_float "dead space" 0.0 (Placement.dead_space_ratio p)

let test_placement_overlap_detection () =
  let bs = blocks 2 in
  let p = Placement.make ~blocks:bs ~rects:[| rect 0. 0. 1. 1.; rect 0.5 0.5 1. 1. |] in
  Alcotest.(check bool) "overlap" true (Placement.has_overlap p)

let test_wirelength () =
  let bs = blocks 2 in
  let p = Placement.make ~blocks:bs ~rects:[| rect 0. 0. 2. 2.; rect 3. 4. 2. 2. |] in
  check_float "clique wl" 5.0 (Placement.total_wirelength p);
  check_float "explicit net" 5.0 (Placement.total_wirelength ~nets:[ (0, 1) ] p);
  check_float "no nets" 0.0 (Placement.total_wirelength ~nets:[] p)

(* --- Ga ----------------------------------------------------------------- *)

let area_cost p = Placement.die_area p

let test_ga_beats_or_matches_initial () =
  let bs =
    Array.init 7 (fun i ->
        Block.make ~name:(string_of_int i) ~area:((float_of_int i +. 1.0) *. 1e-6) ())
  in
  let initial_cost = area_cost (Slicing.evaluate bs (Slicing.initial 7)) in
  let r = Ga.run ~seed:1 ~blocks:bs ~cost:area_cost () in
  Alcotest.(check bool) "ga <= initial" true (r.Ga.best_cost <= initial_cost +. 1e-15);
  Alcotest.(check bool) "result overlap-free" false (Placement.has_overlap r.Ga.best_placement)

let test_ga_history_monotone () =
  let bs = blocks 6 in
  let r = Ga.run ~seed:2 ~blocks:bs ~cost:area_cost () in
  let ok = ref true in
  for i = 1 to Array.length r.Ga.history - 1 do
    if r.Ga.history.(i) > r.Ga.history.(i - 1) +. 1e-15 then ok := false
  done;
  Alcotest.(check bool) "elitism keeps best" true !ok

let test_ga_deterministic () =
  let bs = blocks 5 in
  let a = Ga.run ~seed:3 ~blocks:bs ~cost:area_cost () in
  let b = Ga.run ~seed:3 ~blocks:bs ~cost:area_cost () in
  Alcotest.(check (float 0.0)) "same result" a.Ga.best_cost b.Ga.best_cost

let test_ga_single_block () =
  let bs = blocks 1 in
  let r = Ga.run ~seed:4 ~blocks:bs ~cost:area_cost () in
  Alcotest.(check bool) "area = block area" true
    (Float.abs (Placement.die_area r.Ga.best_placement -. 1e-6) < 1e-12)

let test_ga_validation () =
  let bad f = try ignore (f () : Ga.result); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty blocks" true
    (bad (fun () -> Ga.run ~seed:1 ~blocks:[||] ~cost:area_cost ()));
  Alcotest.(check bool) "elite >= population" true
    (bad (fun () ->
         Ga.run
           ~params:{ Ga.default_params with Ga.population = 4; elite = 4 }
           ~seed:1 ~blocks:(blocks 3) ~cost:area_cost ()))

let test_ga_respects_thermal_style_cost () =
  (* A cost that punishes block 0 and 1 being adjacent: the GA should
     separate them. *)
  let bs = blocks 4 in
  let cost p =
    Placement.die_area p
    +. (1e-4 *. Block.shared_boundary p.Placement.rects.(0) p.Placement.rects.(1))
  in
  let r = Ga.run ~seed:5 ~blocks:bs ~cost () in
  let shared = Block.shared_boundary r.Ga.best_placement.Placement.rects.(0)
      r.Ga.best_placement.Placement.rects.(1) in
  Alcotest.(check (float 1e-12)) "hot blocks separated" 0.0 shared

(* The GA loop as it was before [Ga.run] memoized fitness: every
   individual scored afresh, in the same order and on the same random
   stream. Returns the result and the distinct expressions it scored. *)
let unmemoized_ga ~seed ~blocks ~cost =
  let { Ga.population; generations; crossover_rate; mutation_rate; tournament; elite } =
    Ga.default_params
  in
  let n = Array.length blocks in
  let rng = Rng.create seed in
  let distinct = Hashtbl.create 64 in
  let evaluate_all exprs =
    Array.map
      (fun expr ->
        Hashtbl.replace distinct (Array.to_list expr) ();
        let placement = Slicing.evaluate blocks expr in
        (expr, placement, cost placement))
      exprs
  in
  let pop =
    ref
      (evaluate_all
         (Array.init population (fun i ->
              if i = 0 then Slicing.initial n else Slicing.random rng n)))
  in
  let by_cost (_, _, c1) (_, _, c2) = compare c1 c2 in
  Array.sort by_cost !pop;
  let history = Array.make generations 0.0 in
  let select () =
    let best = ref (Rng.int rng population) in
    for _ = 2 to tournament do
      let c = Rng.int rng population in
      let (_, _, cc) = !pop.(c) and (_, _, cb) = !pop.(!best) in
      if cc < cb then best := c
    done;
    let e, _, _ = !pop.(!best) in
    e
  in
  for gen = 0 to generations - 1 do
    let children =
      Array.init (population - elite) (fun _ ->
          let a = select () in
          let child =
            if Rng.float rng 1.0 < crossover_rate then Ga.crossover a (select ())
            else Array.copy a
          in
          if Rng.float rng 1.0 < mutation_rate then Ga.mutate rng child else child)
    in
    let evaluated = evaluate_all children in
    let next = Array.make population !pop.(0) in
    for i = 0 to elite - 1 do
      next.(i) <- !pop.(i)
    done;
    Array.blit evaluated 0 next elite (population - elite);
    Array.sort by_cost next;
    pop := next;
    let _, _, best_cost = !pop.(0) in
    history.(gen) <- best_cost
  done;
  let best_expr, _, best_cost = !pop.(0) in
  ((best_cost, history, best_expr), Hashtbl.length distinct)

let m_evaluations = Tats_util.Metricsreg.counter "ga.evaluations"
let m_memo_hits = Tats_util.Metricsreg.counter "ga.memo_hits"

let hex = Printf.sprintf "%h"

(* Blocks of unequal area, so that most expressions differ in cost. *)
let uneven_blocks n =
  Array.init n (fun i ->
      Block.make ~name:(Printf.sprintf "b%d" i) ~area:(float_of_int (i + 1) *. 4e-6) ())

let blocks_area blocks = Array.fold_left (fun a b -> a +. b.Block.area) 0.0 blocks

let area_only blocks placement =
  Tats_cosynth.Flow.floorplan_cost ~blocks_area:(blocks_area blocks) placement

let thermal blocks =
  let power = Array.init (Array.length blocks) (fun i -> 0.5 +. (0.25 *. float_of_int i)) in
  Tats_cosynth.Flow.floorplan_cost
    ~thermal:(Tats_cosynth.Flow.thermal_ga_term ~package:Tats_thermal.Package.default ~power)
    ~blocks_area:(blocks_area blocks)

(* [Ga.run] scores each distinct expression once per run; with a pure cost
   that changes nothing, bit for bit. Seven blocks make 13-slot
   expressions, past the 10 values the polymorphic hash looks at. *)
let test_ga_memo_exact make_cost n () =
  let { Ga.population; generations; elite; _ } = Ga.default_params in
  let blocks = uneven_blocks n in
  let cost = make_cost blocks in
  for seed = 1 to 6 do
    let (ref_cost, ref_history, ref_expr), distinct = unmemoized_ga ~seed ~blocks ~cost in
    let evals0 = Tats_util.Metricsreg.counter_value m_evaluations
    and hits0 = Tats_util.Metricsreg.counter_value m_memo_hits in
    let r = Ga.run ~seed ~blocks ~cost () in
    let evals = Tats_util.Metricsreg.counter_value m_evaluations - evals0
    and hits = Tats_util.Metricsreg.counter_value m_memo_hits - hits0 in
    let what = Printf.sprintf "seed %d, %d blocks" seed n in
    Alcotest.(check string) (what ^ ": best cost") (hex ref_cost) (hex r.Ga.best_cost);
    Alcotest.(check (array string))
      (what ^ ": history") (Array.map hex ref_history) (Array.map hex r.Ga.history);
    Alcotest.(check bool) (what ^ ": best expression") true (ref_expr = r.Ga.best_expr);
    Alcotest.(check int) (what ^ ": one cost call per distinct expression") distinct evals;
    Alcotest.(check int)
      (what ^ ": calls + hits = children")
      (population + (generations * (population - elite)))
      (evals + hits)
  done

(* --- Grid --------------------------------------------------------------- *)

let test_grid_identical_blocks_abut () =
  let bs = blocks 4 in
  let p = Grid.layout bs in
  Alcotest.(check bool) "no overlap" false (Placement.has_overlap p);
  (* 2x2 grid of identical squares: horizontal neighbours share a full edge. *)
  let side = Grid.square_of_area 1e-6 in
  Alcotest.(check (float 1e-12)) "abutting"
    side
    (Block.shared_boundary p.Placement.rects.(0) p.Placement.rects.(1))

let test_grid_heterogeneous_centered () =
  let bs =
    [| Block.make ~name:"big" ~area:4e-6 (); Block.make ~name:"small" ~area:1e-6 () |]
  in
  let p = Grid.layout bs in
  Alcotest.(check bool) "no overlap" false (Placement.has_overlap p);
  (* The small block sits inside its tile, so its area is preserved. *)
  Alcotest.(check bool) "areas preserved" true
    (Float.abs (Block.rect_area p.Placement.rects.(1) -. 1e-6) < 1e-18)

let test_grid_row_wrapping () =
  let p = Grid.layout (blocks 5) in
  (* 5 blocks on a 3-wide grid: block 3 starts the second row. *)
  let r0 = p.Placement.rects.(0) and r3 = p.Placement.rects.(3) in
  Alcotest.(check (float 1e-12)) "same column" r0.Block.x r3.Block.x;
  Alcotest.(check bool) "next row" true (r3.Block.y > r0.Block.y)

let () =
  Runner.run "tats_floorplan"
    [
      ( "geometry",
        [
          Alcotest.test_case "rect basics" `Quick test_rect_basics;
          Alcotest.test_case "overlap area" `Quick test_overlap_area;
          Alcotest.test_case "shared boundary vertical" `Quick
            test_shared_boundary_vertical;
          Alcotest.test_case "shared boundary horizontal" `Quick
            test_shared_boundary_horizontal;
          Alcotest.test_case "no boundary" `Quick test_shared_boundary_none;
          Alcotest.test_case "center distance" `Quick test_center_distance;
          Alcotest.test_case "block validation" `Quick test_block_validation;
        ] );
      ( "slicing",
        [
          Alcotest.test_case "initial valid" `Quick test_validate_initial;
          Alcotest.test_case "invalid rejected" `Quick test_validate_rejects;
          Alcotest.test_case "V cut" `Quick test_evaluate_two_blocks_v;
          Alcotest.test_case "H cut" `Quick test_evaluate_two_blocks_h;
          Alcotest.test_case "areas preserved" `Quick test_evaluate_preserves_areas;
          Alcotest.test_case "aspect bounds" `Quick test_evaluate_respects_aspect_bounds;
          Alcotest.test_case "invalid evaluate" `Quick test_evaluate_rejects_invalid;
        ] );
      ( "placement",
        [
          Alcotest.test_case "die/dead space" `Quick test_placement_die_and_dead_space;
          Alcotest.test_case "overlap detection" `Quick test_placement_overlap_detection;
          Alcotest.test_case "wirelength" `Quick test_wirelength;
        ] );
      ( "ga",
        [
          Alcotest.test_case "beats initial" `Quick test_ga_beats_or_matches_initial;
          Alcotest.test_case "history monotone" `Quick test_ga_history_monotone;
          Alcotest.test_case "deterministic" `Quick test_ga_deterministic;
          Alcotest.test_case "single block" `Quick test_ga_single_block;
          Alcotest.test_case "validation" `Quick test_ga_validation;
          Alcotest.test_case "custom cost steers" `Quick
            test_ga_respects_thermal_style_cost;
        ] );
      ( "ga memo",
        List.concat_map
          (fun (name, cost) ->
            List.map
              (fun n ->
                Alcotest.test_case
                  (Printf.sprintf "%s, %d blocks = unmemoized" name n)
                  `Quick (test_ga_memo_exact cost n))
              [ 2; 3; 4; 5; 6; 7 ])
          [ ("area-only", area_only); ("thermal", thermal) ] );
      ( "grid",
        [
          Alcotest.test_case "identical abut" `Quick test_grid_identical_blocks_abut;
          Alcotest.test_case "heterogeneous centered" `Quick
            test_grid_heterogeneous_centered;
          Alcotest.test_case "row wrapping" `Quick test_grid_row_wrapping;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_exprs_valid ]);
    ]
