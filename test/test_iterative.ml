open Dpm_linalg

let t = Alcotest.test_case

(* Random birth-death generator: irreducible, nice diagonals. *)
let birth_death n lam mu =
  let ts = ref [] in
  for i = 0 to n - 1 do
    if i < n - 1 then ts := (i, i + 1, lam) :: !ts;
    if i > 0 then ts := (i, i - 1, mu) :: !ts
  done;
  let out = Array.make n 0.0 in
  List.iter (fun (i, _, r) -> out.(i) <- out.(i) +. r) !ts;
  let diag = List.init n (fun i -> (i, i, -.out.(i))) in
  Sparse.of_triplets ~rows:n ~cols:n (diag @ !ts)

let mm1k_closed_form n lam mu =
  let rho = lam /. mu in
  Vec.normalize1 (Vec.init n (fun i -> rho ** float_of_int i))

let gauss_seidel_steady_birth_death () =
  let q = birth_death 8 0.7 1.3 in
  let r = Iterative.gauss_seidel_steady ~tol:1e-14 q in
  Alcotest.(check bool) "converged" true r.Iterative.converged;
  Alcotest.(check bool) "residual tiny" true (r.Iterative.residual < 1e-9);
  Test_util.check_vec ~tol:1e-8 "stationary" (mm1k_closed_form 8 0.7 1.3)
    r.Iterative.solution

let steady_rejects_zero_diagonal () =
  let q = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.0); (0, 0, -1.0) ] in
  Test_util.check_raises_invalid "absorbing state" (fun () ->
      ignore (Iterative.gauss_seidel_steady q))

let iteration_cap_reported () =
  let q = birth_death 7 0.7 1.3 in
  let r = Iterative.gauss_seidel_steady ~tol:1e-16 ~max_iter:2 q in
  Alcotest.(check bool) "not converged" false r.Iterative.converged;
  Alcotest.(check int) "stopped at cap" 2 r.Iterative.iterations

let suite =
  [
    t "gauss-seidel steady state" `Quick gauss_seidel_steady_birth_death;
    t "steady rejects zero diagonal" `Quick steady_rejects_zero_diagonal;
    t "iteration cap" `Quick iteration_cap_reported;
  ]
