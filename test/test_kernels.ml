(* Differential verification of the cache-blocked flat-storage kernels.

   The blocked kernels in Tats_linalg (tiled Matrix.mul, right-looking
   panel LU, batched multi-RHS back-solve, fused CG) promise more than
   "close enough": the LU factor/solve path is documented to be
   *bit-identical* to the textbook unblocked kernel on finite inputs,
   because the experiment tables are pinned byte-for-byte against
   goldens. This suite re-implements the naive reference kernels inline
   — triple-loop matmul, the pre-blocking unblocked LU verbatim,
   textbook Jacobi-preconditioned CG — on plain [float array array]s,
   with no dependence on Matrix internals, and checks:

   - Matrix.mul against the triple loop to a 1e-9 relative bound
     (tiling keeps the scalar ikj order, but the reference here uses
     ijk accumulation, so only closeness is promised);
   - LU solve, determinant, and unit solutions against the unblocked
     reference with *exact* float equality — this is the test that pins
     the golden-stability guarantee;
   - [Lu.solve_many] / [Lu.unit_solutions] element-wise identical to
     loops of single solves, under domain pools of size 1, 2 and 4;
   - pivoting edge cases: permutation matrices, a Hilbert matrix, and
     [Lu.Singular] on rank-deficient input. *)

module Matrix = Tats_linalg.Matrix
module Lu = Tats_linalg.Lu
module Sparse = Tats_linalg.Sparse
module Cg = Tats_linalg.Cg
module Rng = Tats_util.Rng
module Pool = Tats_util.Pool

(* Exact float equality ([<>] distinguishes every value pair except
   0. / -0., which print identically in the goldens). *)
let vec_identical name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if x <> b.(i) then
        Alcotest.failf "%s: index %d: %.17g <> %.17g" name i x b.(i))
    a

let vec_rel_close ?(eps = 1e-9) name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      let scale = Float.max 1.0 (Float.abs b.(i)) in
      if Float.abs (x -. b.(i)) > eps *. scale then
        Alcotest.failf "%s: index %d: %.17g vs %.17g" name i x b.(i))
    a

let random_rows rng r c lo hi =
  Array.init r (fun _ -> Array.init c (fun _ -> Rng.uniform rng lo hi))

let random_dd_rows rng n =
  (* Diagonally dominant: non-singular with benign pivoting. *)
  Array.init n (fun i ->
      Array.init n (fun j ->
          if i = j then 10.0 +. Rng.float rng 5.0
          else Rng.uniform rng (-1.0) 1.0))

(* --- Reference kernels --------------------------------------------------- *)

(* Triple-loop matmul, ijk order with a scalar accumulator. *)
let ref_matmul a b =
  let m = Array.length a and kn = Array.length b in
  let cn = Array.length b.(0) in
  Array.init m (fun i ->
      Array.init cn (fun j ->
          let acc = ref 0.0 in
          for k = 0 to kn - 1 do
            acc := !acc +. (a.(i).(k) *. b.(k).(j))
          done;
          !acc))

exception Ref_singular

(* The unblocked partial-pivoting LU this library shipped before the
   kernels were blocked, transcribed onto row arrays. Every scalar
   operation and its order is preserved; this is the ground truth the
   blocked factorization must match exactly. *)
let ref_factor rows =
  let n = Array.length rows in
  let lu = Array.map Array.copy rows in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    let pivot_row = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs lu.(i).(k) > Float.abs lu.(!pivot_row).(k) then
        pivot_row := i
    done;
    if !pivot_row <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot_row);
      lu.(!pivot_row) <- tmp;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!pivot_row);
      perm.(!pivot_row) <- tmp;
      sign := -. !sign
    end;
    let pivot = lu.(k).(k) in
    if Float.abs pivot < 1e-300 then raise Ref_singular;
    for i = k + 1 to n - 1 do
      let factor = lu.(i).(k) /. pivot in
      lu.(i).(k) <- factor;
      for j = k + 1 to n - 1 do
        lu.(i).(j) <- lu.(i).(j) -. (factor *. lu.(k).(j))
      done
    done
  done;
  (lu, perm, !sign)

let ref_solve (lu, perm, _) b =
  let n = Array.length lu in
  let x = Array.init n (fun i -> b.(perm.(i))) in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- x.(i) /. lu.(i).(i)
  done;
  x

let ref_det (lu, _, sign) =
  let d = ref sign in
  Array.iteri (fun i row -> d := !d *. row.(i)) lu;
  !d

let dot a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

(* Textbook Jacobi-preconditioned conjugate gradient. *)
let ref_cg ?(tol = 1e-10) a b =
  let n = Array.length b in
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let inv_d = Array.map (fun d -> 1.0 /. d) (Sparse.diag a) in
  let z = Array.mapi (fun i ri -> inv_d.(i) *. ri) r in
  let p = Array.copy z in
  let rz = ref (dot r z) in
  let limit = tol *. Float.max 1e-300 (sqrt (dot b b)) in
  let iter = ref 0 in
  while sqrt (dot r r) > limit && !iter < 10 * n do
    let ap = Sparse.mul_vec a p in
    let alpha = !rz /. dot p ap in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) +. (alpha *. p.(i));
      r.(i) <- r.(i) -. (alpha *. ap.(i))
    done;
    for i = 0 to n - 1 do
      z.(i) <- inv_d.(i) *. r.(i)
    done;
    let rz' = dot r z in
    let beta = rz' /. !rz in
    rz := rz';
    for i = 0 to n - 1 do
      p.(i) <- z.(i) +. (beta *. p.(i))
    done;
    incr iter
  done;
  x

(* --- Matrix.mul vs the triple loop -------------------------------------- *)

(* Sizes straddle the 48-wide tile: below, at, just past, and at the
   suite ceiling of 96 = 2 tiles. *)
let mul_sizes = [ 1; 2; 3; 5; 8; 13; 31; 47; 48; 49; 64; 95; 96 ]

let test_mul_square_sweep () =
  List.iteri
    (fun idx n ->
      let rng = Rng.create (1000 + idx) in
      let a = random_rows rng n n (-2.0) 2.0
      and b = random_rows rng n n (-2.0) 2.0 in
      let c = Matrix.mul (Matrix.of_arrays a) (Matrix.of_arrays b) in
      let expect = ref_matmul a b in
      for i = 0 to n - 1 do
        vec_rel_close
          (Printf.sprintf "mul n=%d row %d" n i)
          (Array.init n (Matrix.get c i))
          expect.(i)
      done)
    mul_sizes

let test_mul_non_square () =
  (* (m, k, n) shapes crossing tile boundaries asymmetrically. *)
  List.iteri
    (fun idx (m, k, n) ->
      let rng = Rng.create (2000 + idx) in
      let a = random_rows rng m k (-3.0) 3.0
      and b = random_rows rng k n (-3.0) 3.0 in
      let c = Matrix.mul (Matrix.of_arrays a) (Matrix.of_arrays b) in
      let expect = ref_matmul a b in
      Alcotest.(check int) "rows" m (Matrix.rows c);
      Alcotest.(check int) "cols" n (Matrix.cols c);
      for i = 0 to m - 1 do
        vec_rel_close
          (Printf.sprintf "mul %dx%dx%d row %d" m k n i)
          (Array.init n (Matrix.get c i))
          expect.(i)
      done)
    [ (1, 96, 1); (3, 96, 5); (96, 1, 96); (7, 49, 96); (96, 50, 2); (5, 1, 7) ]

let prop_mul_matches_reference =
  QCheck.Test.make ~name:"blocked mul matches triple loop" ~count:80
    QCheck.(triple small_int (int_range 1 24) (int_range 1 24))
    (fun (seed, m, n) ->
      let rng = Rng.create (seed + 11) in
      let k = 1 + Rng.int rng 24 in
      let a = random_rows rng m k (-5.0) 5.0
      and b = random_rows rng k n (-5.0) 5.0 in
      let c = Matrix.mul (Matrix.of_arrays a) (Matrix.of_arrays b) in
      let expect = ref_matmul a b in
      let ok = ref true in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let e = expect.(i).(j) in
          let scale = Float.max 1.0 (Float.abs e) in
          if Float.abs (Matrix.get c i j -. e) > 1e-9 *. scale then ok := false
        done
      done;
      !ok)

(* --- LU: exact agreement with the unblocked reference -------------------- *)

let check_lu_identical name rows =
  let n = Array.length rows in
  let f = Lu.factor (Matrix.of_arrays rows) in
  let rf = ref_factor rows in
  let rng = Rng.create (n + 17) in
  let b = Array.init n (fun _ -> Rng.uniform rng (-10.0) 10.0) in
  vec_identical (name ^ " solve") (Lu.solve_factored f b) (ref_solve rf b);
  vec_identical (name ^ " det") [| Lu.det f |] [| ref_det rf |];
  if n > 0 then
    vec_identical
      (name ^ " unit solution")
      (Lu.unit_solution f (n / 2))
      (ref_solve rf
         (Array.init n (fun i -> if i = n / 2 then 1.0 else 0.0)))

let test_lu_identical_sweep () =
  (* Sizes straddle the 32-wide panel: below, at, just past, several
     panels, and the 96 ceiling = 3 panels. *)
  List.iteri
    (fun idx n ->
      let rng = Rng.create (3000 + idx) in
      check_lu_identical (Printf.sprintf "dd n=%d" n) (random_dd_rows rng n))
    [ 1; 2; 3; 5; 16; 31; 32; 33; 48; 63; 64; 65; 96 ]

let test_lu_identical_general () =
  (* Non-dominant matrices exercise real pivot swaps across panels. *)
  List.iteri
    (fun idx n ->
      let rng = Rng.create (4000 + idx) in
      check_lu_identical
        (Printf.sprintf "general n=%d" n)
        (random_rows rng n n (-10.0) 10.0))
    [ 4; 17; 33; 64; 96 ]

let prop_lu_solve_identical =
  QCheck.Test.make ~name:"blocked LU solve identical to unblocked" ~count:80
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 31) in
      let rows = random_rows rng n n (-10.0) 10.0 in
      let b = Array.init n (fun _ -> Rng.uniform rng (-10.0) 10.0) in
      match (Lu.factor (Matrix.of_arrays rows), ref_factor rows) with
      | f, rf ->
          let x = Lu.solve_factored f b and y = ref_solve rf b in
          Array.for_all2 (fun u v -> u = v) x y
      | exception Lu.Singular -> (
          match ref_factor rows with
          | exception Ref_singular -> true
          | _ -> false))

(* --- Pivoting edge cases ------------------------------------------------- *)

let test_permutation_matrix () =
  (* A permutation matrix makes every pivot search hit an off-diagonal
     row; the solve must recover the permuted RHS exactly. *)
  let n = 33 in
  let rng = Rng.create 77 in
  let p = Array.init n (fun i -> i) in
  Rng.shuffle rng p;
  let rows =
    Array.init n (fun i -> Array.init n (fun j -> if p.(i) = j then 1.0 else 0.0))
  in
  let f = Lu.factor (Matrix.of_arrays rows) in
  let b = Array.init n (fun _ -> Rng.uniform rng (-10.0) 10.0) in
  let x = Lu.solve_factored f b in
  (* A x = b with A(i, p(i)) = 1 reads x(p(i)) = b(i). *)
  let expect = Array.make n 0.0 in
  Array.iteri (fun i pi -> expect.(pi) <- b.(i)) p;
  vec_identical "permuted rhs" x expect;
  vec_identical "reference" x (ref_solve (ref_factor rows) b);
  Alcotest.(check bool) "det is +/-1" true (Float.abs (Lu.det f) = 1.0)

let test_hilbert_identical () =
  (* Hilbert matrices are notoriously ill-conditioned; the factors drift
     far from exact arithmetic, but blocked and unblocked must drift in
     exactly the same way. *)
  let n = 10 in
  let rows =
    Array.init n (fun i ->
        Array.init n (fun j -> 1.0 /. float_of_int (i + j + 1)))
  in
  let f = Lu.factor (Matrix.of_arrays rows) in
  let rf = ref_factor rows in
  let b = Array.init n (fun i -> float_of_int (1 + (i mod 3))) in
  vec_identical "hilbert solve" (Lu.solve_factored f b) (ref_solve rf b);
  vec_identical "hilbert det" [| Lu.det f |] [| ref_det rf |]

let test_rank_deficient_singular () =
  let n = 8 in
  let rng = Rng.create 5 in
  let rows = random_rows rng n n (-1.0) 1.0 in
  rows.(n - 1) <- Array.copy rows.(0);
  (* equal rows: rank n-1 *)
  Alcotest.check_raises "singular" Lu.Singular (fun () ->
      ignore (Lu.factor (Matrix.of_arrays rows) : Lu.t));
  Alcotest.check_raises "reference singular" Ref_singular (fun () ->
      ignore (ref_factor rows))

let test_zero_pivot_column () =
  let rows = [| [| 0.0; 1.0; 2.0 |]; [| 0.0; 3.0; 4.0 |]; [| 0.0; 5.0; 6.0 |] |] in
  Alcotest.check_raises "zero column" Lu.Singular (fun () ->
      ignore (Lu.factor (Matrix.of_arrays rows) : Lu.t))

(* --- Batched solves: element-wise identity ------------------------------- *)

let prop_solve_many_identical =
  QCheck.Test.make
    ~name:"solve_many identical to a loop of solve_factored_into" ~count:60
    QCheck.(triple small_int (int_range 1 24) (int_range 1 12))
    (fun (seed, n, nrhs) ->
      let rng = Rng.create (seed + 41) in
      let f = Lu.factor (Matrix.of_arrays (random_dd_rows rng n)) in
      let bs =
        Array.init nrhs (fun _ ->
            Array.init n (fun _ -> Rng.uniform rng (-10.0) 10.0))
      in
      let batched = Lu.solve_many f bs in
      let x = Array.make n 0.0 in
      Array.for_all2
        (fun b xb ->
          Lu.solve_factored_into f ~b ~x;
          Array.for_all2 (fun u v -> u = v) x xb)
        bs batched)

let test_unit_solutions_pool_sizes () =
  (* The batched extraction must agree element-wise with per-column unit
     solves, and the per-column loop itself must be bit-stable under the
     domain pool at any size — together these guarantee the influence
     matrix does not depend on --jobs. *)
  let n = 37 in
  let rng = Rng.create 91 in
  let f = Lu.factor (Matrix.of_arrays (random_dd_rows rng n)) in
  let batched = Lu.unit_solutions f in
  Alcotest.(check int) "column count" n (Array.length batched);
  let per_pool =
    List.map
      (fun jobs ->
        Pool.with_pool ~jobs (fun pool ->
            Pool.parallel_map pool (Lu.unit_solution f)
              (Array.init n (fun j -> j))))
      [ 1; 2; 4 ]
  in
  List.iteri
    (fun k cols ->
      for j = 0 to n - 1 do
        vec_identical
          (Printf.sprintf "jobs-variant %d col %d" k j)
          cols.(j) batched.(j)
      done)
    per_pool

let test_solve_many_empty_and_single () =
  let n = 5 in
  let rng = Rng.create 13 in
  let f = Lu.factor (Matrix.of_arrays (random_dd_rows rng n)) in
  Alcotest.(check int) "no rhs" 0 (Array.length (Lu.solve_many f [||]));
  let b = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  vec_identical "single rhs" (Lu.solve_many f [| b |]).(0)
    (Lu.solve_factored f b)

(* --- CG vs the textbook iteration ---------------------------------------- *)

let random_spd rng n =
  let acc = ref [] in
  for i = 0 to n - 1 do
    acc := (i, i, 8.0 +. Rng.float rng 4.0) :: !acc;
    if i + 1 < n then begin
      let g = -.Rng.float rng 1.0 in
      acc := (i, i + 1, g) :: (i + 1, i, g) :: !acc
    end
  done;
  Sparse.of_triplets ~rows:n ~cols:n !acc

let test_cg_matches_textbook () =
  let rng = Rng.create 29 in
  let n = 40 in
  let a = random_spd rng n in
  let b = Array.init n (fun _ -> Rng.uniform rng (-5.0) 5.0) in
  let x, _ = Cg.solve ~tol:1e-12 a b in
  vec_rel_close ~eps:1e-6 "cg vs textbook" x (ref_cg ~tol:1e-12 a b)

let test_cg_workspace_identical () =
  (* The workspace only preallocates buffers; with and without it the
     iteration performs the same operations, so the solutions must be
     identical — and a reused (dirty) workspace must not leak state. *)
  let rng = Rng.create 43 in
  let n = 30 in
  let a = random_spd rng n in
  let b = Array.init n (fun _ -> Rng.uniform rng (-5.0) 5.0) in
  let fresh, _ = Cg.solve a b in
  let ws = Cg.workspace n in
  let first, _ = Cg.solve ~workspace:ws a b in
  let again, _ = Cg.solve ~workspace:ws a b in
  vec_identical "workspace vs fresh" first fresh;
  vec_identical "dirty workspace reuse" again fresh

let () =
  Runner.run "tats_kernels"
    [
      ( "matmul",
        [
          Alcotest.test_case "square size sweep" `Quick test_mul_square_sweep;
          Alcotest.test_case "non-square shapes" `Quick test_mul_non_square;
        ] );
      ( "lu-identity",
        [
          Alcotest.test_case "diagonally dominant sweep" `Quick
            test_lu_identical_sweep;
          Alcotest.test_case "general matrices" `Quick test_lu_identical_general;
        ] );
      ( "pivoting",
        [
          Alcotest.test_case "permutation matrix" `Quick test_permutation_matrix;
          Alcotest.test_case "hilbert" `Quick test_hilbert_identical;
          Alcotest.test_case "rank deficient" `Quick test_rank_deficient_singular;
          Alcotest.test_case "zero pivot column" `Quick test_zero_pivot_column;
        ] );
      ( "batched",
        [
          Alcotest.test_case "unit_solutions across pool sizes" `Quick
            test_unit_solutions_pool_sizes;
          Alcotest.test_case "empty and single batch" `Quick
            test_solve_many_empty_and_single;
        ] );
      ( "cg",
        [
          Alcotest.test_case "matches textbook" `Quick test_cg_matches_textbook;
          Alcotest.test_case "workspace identical" `Quick
            test_cg_workspace_identical;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_mul_matches_reference;
            prop_lu_solve_identical;
            prop_solve_many_identical;
          ] );
    ]
