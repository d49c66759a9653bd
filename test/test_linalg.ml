(* Tests for Tats_linalg: dense matrices, LU, sparse CSR, conjugate
   gradient. *)

module Matrix = Tats_linalg.Matrix
module Lu = Tats_linalg.Lu
module Sparse = Tats_linalg.Sparse
module Cg = Tats_linalg.Cg
module Rng = Tats_util.Rng

let check_float = Alcotest.(check (float 1e-9))

let vec_close ?(eps = 1e-8) name a b =
  Alcotest.(check int) (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if Float.abs (x -. b.(i)) > eps then
        Alcotest.failf "%s: index %d: %g vs %g" name i x b.(i))
    a

(* --- Matrix ------------------------------------------------------------- *)

let test_init_get_set () =
  let m = Matrix.init 2 3 (fun i j -> float_of_int ((i * 10) + j)) in
  check_float "get" 12.0 (Matrix.get m 1 2);
  Matrix.set m 1 2 99.0;
  check_float "set" 99.0 (Matrix.get m 1 2);
  Matrix.add_to m 1 2 1.0;
  check_float "add_to" 100.0 (Matrix.get m 1 2)

let test_of_arrays_ragged () =
  Alcotest.check_raises "ragged rejected"
    (Invalid_argument "Matrix.of_arrays: ragged input") (fun () ->
      ignore (Matrix.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |] : Matrix.t))

let test_identity_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Matrix.identity 2 in
  Alcotest.(check (float 0.0)) "I*A = A" 0.0 (Matrix.max_abs_diff (Matrix.mul i a) a);
  Alcotest.(check (float 0.0)) "A*I = A" 0.0 (Matrix.max_abs_diff (Matrix.mul a i) a)

let test_mul_known () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c01" 22.0 (Matrix.get c 0 1);
  check_float "c10" 43.0 (Matrix.get c 1 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

let test_transpose () =
  let a = Matrix.init 2 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let t = Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Matrix.rows t);
  Alcotest.(check int) "cols" 2 (Matrix.cols t);
  check_float "t21" 5.0 (Matrix.get t 2 1)

let test_mul_vec () =
  let a = Matrix.of_arrays [| [| 2.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  vec_close "mul_vec" [| 2.0; 7.0 |] (Matrix.mul_vec a [| 1.0; 2.0 |])

let test_add_sub_scale_frobenius () =
  let a = Matrix.of_arrays [| [| 3.0; 4.0 |] |] in
  check_float "frobenius" 5.0 (Matrix.frobenius a);
  let z = Matrix.sub (Matrix.add a a) (Matrix.scale 2.0 a) in
  check_float "a+a-2a = 0" 0.0 (Matrix.frobenius z)

(* --- Lu ----------------------------------------------------------------- *)

let test_lu_known_system () =
  (* 2x + y = 5 ; x + 3y = 10 -> x = 1, y = 3 *)
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  vec_close "solution" [| 1.0; 3.0 |] (Lu.solve a [| 5.0; 10.0 |])

let test_lu_needs_pivoting () =
  (* Zero on the leading diagonal forces a row swap. *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  vec_close "swap solved" [| 2.0; 1.0 |] (Lu.solve a [| 1.0; 2.0 |])

let test_lu_singular () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" Lu.Singular (fun () ->
      ignore (Lu.factor a : Lu.t))

let test_lu_det () =
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  check_float "det" 5.0 (Lu.det (Lu.factor a));
  let swapped = Matrix.of_arrays [| [| 1.0; 3.0 |]; [| 2.0; 1.0 |] |] in
  check_float "det sign under row order" (-5.0) (Lu.det (Lu.factor swapped))

let test_lu_inverse () =
  let a = Matrix.of_arrays [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
  let inv = Lu.inverse a in
  let prod = Matrix.mul a inv in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Matrix.max_abs_diff prod (Matrix.identity 2) < 1e-10)

let test_factored_reuse () =
  let a = Matrix.of_arrays [| [| 3.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let f = Lu.factor a in
  let x1 = Lu.solve_factored f [| 4.0; 3.0 |] in
  let x2 = Lu.solve_factored f [| 8.0; 6.0 |] in
  vec_close "scaled rhs, scaled solution" (Array.map (fun v -> 2.0 *. v) x1) x2

let random_dd_matrix rng n =
  (* Diagonally dominant: always non-singular and well-conditioned. *)
  Matrix.init n n (fun i j ->
      if i = j then 10.0 +. Rng.float rng 5.0
      else Rng.uniform rng (-1.0) 1.0)

let prop_lu_residual =
  QCheck.Test.make ~name:"LU residual is tiny on random systems" ~count:100
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 1) in
      let a = random_dd_matrix rng n in
      let b = Array.init n (fun _ -> Rng.uniform rng (-10.0) 10.0) in
      let x = Lu.solve a b in
      Lu.residual a x b < 1e-8)

(* --- Sparse ------------------------------------------------------------- *)

let test_sparse_roundtrip () =
  let s = Sparse.of_triplets ~rows:2 ~cols:3 [ (0, 1, 2.0); (1, 2, -1.0) ] in
  Alcotest.(check int) "nnz" 2 (Sparse.nnz s);
  check_float "get present" 2.0 (Sparse.get s 0 1);
  check_float "get absent" 0.0 (Sparse.get s 1 0)

let test_sparse_duplicates_summed () =
  let s = Sparse.of_triplets ~rows:1 ~cols:1 [ (0, 0, 1.5); (0, 0, 2.5) ] in
  Alcotest.(check int) "merged" 1 (Sparse.nnz s);
  check_float "summed" 4.0 (Sparse.get s 0 0)

let test_sparse_mul_vec_matches_dense () =
  let triplets = [ (0, 0, 2.0); (0, 2, 1.0); (1, 1, 3.0); (2, 0, -1.0) ] in
  let s = Sparse.of_triplets ~rows:3 ~cols:3 triplets in
  let v = [| 1.0; 2.0; 3.0 |] in
  vec_close "sparse vs dense" (Matrix.mul_vec (Sparse.to_dense s) v) (Sparse.mul_vec s v)

let test_sparse_diag_and_symmetry () =
  let sym =
    Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 1, 2.0); (1, 0, 2.0); (1, 1, 3.0) ]
  in
  vec_close "diag" [| 1.0; 3.0 |] (Sparse.diag sym);
  Alcotest.(check bool) "symmetric" true (Sparse.is_symmetric sym);
  let asym = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 1, 2.0) ] in
  Alcotest.(check bool) "asymmetric" false (Sparse.is_symmetric asym)

let test_sparse_out_of_range () =
  Alcotest.check_raises "row out of range"
    (Invalid_argument "Sparse.of_triplets: index out of range") (fun () ->
      ignore (Sparse.of_triplets ~rows:1 ~cols:1 [ (1, 0, 1.0) ] : Sparse.t))

(* --- Cg ----------------------------------------------------------------- *)

let random_spd_triplets rng n =
  (* Laplacian-like: symmetric positive definite with strong diagonal. *)
  let acc = ref [] in
  for i = 0 to n - 1 do
    acc := (i, i, 8.0 +. Rng.float rng 4.0) :: !acc;
    if i + 1 < n then begin
      let g = -.Rng.float rng 1.0 in
      acc := (i, i + 1, g) :: (i + 1, i, g) :: !acc
    end
  done;
  !acc

let test_cg_matches_lu () =
  let rng = Rng.create 123 in
  let n = 20 in
  let s = Sparse.of_triplets ~rows:n ~cols:n (random_spd_triplets rng n) in
  let b = Array.init n (fun _ -> Rng.uniform rng (-5.0) 5.0) in
  let x_cg, stats = Cg.solve s b in
  let x_lu = Lu.solve (Sparse.to_dense s) b in
  vec_close ~eps:1e-6 "cg vs lu" x_lu x_cg;
  Alcotest.(check bool) "converged quickly" true (stats.Cg.iterations <= 10 * n)

let test_cg_identity () =
  let s = Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 0, 1.0); (1, 1, 1.0); (2, 2, 1.0) ] in
  let x, stats = Cg.solve s [| 1.0; 2.0; 3.0 |] in
  vec_close "identity solve" [| 1.0; 2.0; 3.0 |] x;
  Alcotest.(check bool) "few iterations" true (stats.Cg.iterations <= 2)

let test_cg_warm_start () =
  let s = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 4.0); (1, 1, 2.0) ] in
  let b = [| 8.0; 4.0 |] in
  let exact = [| 2.0; 2.0 |] in
  let _, cold = Cg.solve s b in
  let _, warm = Cg.solve ~x0:exact s b in
  Alcotest.(check bool) "warm start cheaper or equal" true
    (warm.Cg.iterations <= cold.Cg.iterations)

let prop_cg_residual =
  QCheck.Test.make ~name:"CG residual below tolerance" ~count:60
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, n) ->
      let rng = Rng.create (seed + 7) in
      let s = Sparse.of_triplets ~rows:n ~cols:n (random_spd_triplets rng n) in
      let b = Array.init n (fun _ -> Rng.uniform rng (-5.0) 5.0) in
      let x, _ = Cg.solve ~tol:1e-10 s b in
      let r = Sparse.mul_vec s x in
      let worst = ref 0.0 in
      Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. b.(i)))) r;
      !worst < 1e-6)

let () =
  Runner.run "tats_linalg"
    [
      ( "matrix",
        [
          Alcotest.test_case "init/get/set" `Quick test_init_get_set;
          Alcotest.test_case "ragged rejected" `Quick test_of_arrays_ragged;
          Alcotest.test_case "identity mul" `Quick test_identity_mul;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec;
          Alcotest.test_case "add/sub/scale/frobenius" `Quick
            test_add_sub_scale_frobenius;
        ] );
      ( "lu",
        [
          Alcotest.test_case "known system" `Quick test_lu_known_system;
          Alcotest.test_case "pivoting" `Quick test_lu_needs_pivoting;
          Alcotest.test_case "singular detection" `Quick test_lu_singular;
          Alcotest.test_case "determinant" `Quick test_lu_det;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "factored reuse" `Quick test_factored_reuse;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "roundtrip" `Quick test_sparse_roundtrip;
          Alcotest.test_case "duplicate merge" `Quick test_sparse_duplicates_summed;
          Alcotest.test_case "mul_vec vs dense" `Quick test_sparse_mul_vec_matches_dense;
          Alcotest.test_case "diag/symmetry" `Quick test_sparse_diag_and_symmetry;
          Alcotest.test_case "range check" `Quick test_sparse_out_of_range;
        ] );
      ( "cg",
        [
          Alcotest.test_case "matches LU" `Quick test_cg_matches_lu;
          Alcotest.test_case "identity" `Quick test_cg_identity;
          Alcotest.test_case "warm start" `Quick test_cg_warm_start;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_lu_residual; prop_cg_residual ] );
    ]
