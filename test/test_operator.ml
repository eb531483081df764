(* Lazy linear operators: leaves, combinators, kernels, and the
   implicit SYS generator against its materialized references. *)

open Dpm_linalg
open Dpm_core

let check_dense_equal ?(tol = 1e-12) msg expected actual =
  Alcotest.(check bool) msg true (Matrix.approx_equal ~tol expected actual)

(* A small fixed dense block with zeros, negatives, and repeats-free
   structure. *)
let m23 = Matrix.of_arrays [| [| 1.0; 0.0; -2.0 |]; [| 0.0; 3.5; 0.0 |] |]
let m32 = Matrix.of_arrays [| [| 2.0; 0.0 |]; [| -1.0; 1.0 |]; [| 0.0; 4.0 |] |]
let sq2 = Matrix.of_arrays [| [| -1.0; 1.0 |]; [| 2.0; -2.0 |] |]
let sq3 =
  Matrix.of_arrays
    [| [| -3.0; 2.0; 1.0 |]; [| 0.0; -1.0; 1.0 |]; [| 4.0; 0.0; -4.0 |] |]

let leaves_round_trip () =
  check_dense_equal "dense leaf" m23 (Operator.to_dense (Operator.dense m23));
  check_dense_equal "csr leaf" m23
    (Operator.to_dense (Operator.csr (Sparse.of_dense m23)));
  let d = [| 1.0; 0.0; -2.5 |] in
  let expected = Matrix.init 3 3 (fun i j -> if i = j then d.(i) else 0.0) in
  check_dense_equal "diag leaf" expected (Operator.to_dense (Operator.diag d));
  check_dense_equal "identity" (Matrix.identity 4)
    (Operator.to_dense (Operator.identity 4));
  Alcotest.(check int) "rows" 2 (Operator.rows (Operator.dense m23));
  Alcotest.(check int) "cols" 3 (Operator.cols (Operator.dense m23))

let combinators_match_dense () =
  let a = Operator.dense m23 and b = Operator.dense m32 in
  check_dense_equal "kron_prod" (Tensor.product m23 m32)
    (Operator.to_dense (Operator.kron_prod a b));
  check_dense_equal "kron_sum" (Tensor.sum sq2 sq3)
    (Operator.to_dense
       (Operator.kron_sum (Operator.dense sq2) (Operator.dense sq3)));
  check_dense_equal "scaled" (Matrix.scale (-0.5) m23)
    (Operator.to_dense (Operator.scaled (-0.5) a));
  let shifted_expected =
    Matrix.add sq3 (Matrix.scale 2.0 (Matrix.identity 3))
  in
  check_dense_equal "shifted" shifted_expected
    (Operator.to_dense (Operator.shifted (Operator.dense sq3) 2.0));
  check_dense_equal "sum" (Matrix.add m23 m23)
    (Operator.to_dense (Operator.sum a a));
  Alcotest.check_raises "sum shape mismatch"
    (Invalid_argument "Operator.sum: shape mismatch (2x3 vs 3x2)") (fun () ->
      ignore (Operator.sum a b));
  Alcotest.check_raises "kron_sum not square"
    (Invalid_argument "Operator.kron_sum: operator is not square") (fun () ->
      ignore (Operator.kron_sum a a))

let blocks_and_transpose () =
  (* [ sq2 | 0 ; m23' | sq3 ] with m23' a 3x2 coupling block. *)
  let grid =
    Operator.blocks ~row_dims:[| 2; 3 |] ~col_dims:[| 2; 3 |]
      [|
        [| Some (Operator.dense sq2); None |];
        [| Some (Operator.dense m32); Some (Operator.dense sq3) |];
      |]
  in
  let expected = Matrix.create 5 5 in
  for i = 0 to 1 do
    for j = 0 to 1 do
      Matrix.set expected i j (Matrix.get sq2 i j)
    done
  done;
  for i = 0 to 2 do
    for j = 0 to 1 do
      Matrix.set expected (2 + i) j (Matrix.get m32 i j)
    done;
    for j = 0 to 2 do
      Matrix.set expected (2 + i) (2 + j) (Matrix.get sq3 i j)
    done
  done;
  check_dense_equal "blocks" expected (Operator.to_dense grid);
  (* Structural transpose of every combinator at once. *)
  let op =
    Operator.sum
      (Operator.scaled 0.5 grid)
      (Operator.shifted
         (Operator.kron_sum (Operator.dense (Matrix.identity 1)) grid)
         (-1.0))
  in
  check_dense_equal "transpose"
    (Matrix.transpose (Operator.to_dense op))
    (Operator.to_dense (Operator.transpose op));
  Alcotest.check_raises "of_rows not transposable"
    (Invalid_argument
       "Operator.transpose: of_rows leaves carry no column structure")
    (fun () ->
      ignore
        (Operator.transpose (Operator.of_rows ~rows:1 ~cols:1 (fun _ _ -> ()))))

let matvec_and_get () =
  let op =
    Operator.kron_sum (Operator.dense sq2) (Operator.dense sq3)
  in
  let n = Operator.rows op in
  let x = Vec.init n (fun i -> float_of_int (i + 1) /. 3.0) in
  let expected = Matrix.mul_vec (Operator.to_dense op) x in
  let bx = Bvec.of_vec x and dst = Bvec.create n in
  Operator.matvec op bx ~dst;
  Alcotest.(check bool) "matvec" true
    (Vec.approx_equal ~tol:1e-12 expected (Bvec.to_vec dst));
  (* [get] accumulates repeated diagonal contributions. *)
  let dense = Operator.to_dense op in
  for i = 0 to n - 1 do
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "get (%d,%d)" i i)
      (Matrix.get dense i i) (Operator.get op i i)
  done;
  let d = Operator.diagonal op in
  for i = 0 to n - 1 do
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "diagonal %d" i)
      (Matrix.get dense i i) d.(i)
  done

let storage_accounting () =
  let a = Operator.csr (Sparse.of_dense sq3) in
  (* 7 nonzeros in sq3. *)
  Alcotest.(check int) "csr stored" 7 (Operator.stored_floats a);
  let kp = Operator.kron_prod a a in
  Alcotest.(check int) "kron stored = factor sum" 14 (Operator.stored_floats kp);
  Alcotest.(check int) "kron materialized = nnz product" 49
    (Operator.materialized_nnz kp);
  Alcotest.(check int) "expansion agrees" 49 (Sparse.nnz (Operator.to_sparse kp));
  let ks = Operator.kron_sum a a in
  Alcotest.(check int) "kron_sum materialized bound" (21 + 21)
    (Operator.materialized_nnz ks);
  Alcotest.(check bool) "bound dominates expansion" true
    (Sparse.nnz (Operator.to_sparse ks) <= Operator.materialized_nnz ks)

let steady_matches_iterative () =
  let sys = Paper_instance.system () in
  let action = Paper_instance.active in
  let g = Sys_model.generator_of_actions sys ~actions:(fun _ -> action) in
  let reference =
    Iterative.gauss_seidel_steady (Dpm_ctmc.Generator.to_sparse g)
  in
  let implicit = Operator.gauss_seidel_steady (Sys_model.operator sys ~action) in
  Alcotest.(check bool) "implicit converged" true implicit.Iterative.converged;
  Alcotest.(check bool) "stationary vectors agree" true
    (Vec.approx_equal ~tol:1e-9 reference.Iterative.solution
       implicit.Iterative.solution)

let sys_operator_matches_uniform_generator () =
  let sys = Paper_instance.system () in
  for action = 0 to 2 do
    let expected = Sys_model.uniform_generator sys ~action in
    let actual = Operator.to_dense (Sys_model.operator sys ~action) in
    check_dense_equal
      (Printf.sprintf "SYS operator, action %d" action)
      expected actual
  done;
  (* The lazy form must store far fewer floats than the expansion has
     nonzeros on a deep queue. *)
  let sys = Paper_instance.system_at ~arrival_rate:Paper_instance.arrival_rate in
  let op = Sys_model.operator sys ~action:0 in
  Alcotest.(check bool) "implicit storage below expanded nnz" true
    (Operator.stored_floats op < Operator.materialized_nnz op)

let suite =
  [
    Alcotest.test_case "leaves round-trip" `Quick leaves_round_trip;
    Alcotest.test_case "combinators match dense" `Quick combinators_match_dense;
    Alcotest.test_case "blocks and transpose" `Quick blocks_and_transpose;
    Alcotest.test_case "matvec and get" `Quick matvec_and_get;
    Alcotest.test_case "storage accounting" `Quick storage_accounting;
    Alcotest.test_case "steady state matches Iterative" `Quick
      steady_matches_iterative;
    Alcotest.test_case "SYS operator = uniform generator" `Quick
      sys_operator_matches_uniform_generator;
  ]
