type result = {
  solution : Vec.t;
  iterations : int;
  residual : float;
  converged : bool;
}

(* Log-spaced buckets covering the convergence range of interest; one
   observation per sweep gives the residual trajectory shape. *)
let residual_buckets =
  [| 1e-14; 1e-12; 1e-10; 1e-8; 1e-6; 1e-4; 1e-2; 1.0 |]

let observe_residual r = Dpm_obs.Probe.observe "iterative.residual" ~buckets:residual_buckets r
let count_sweeps n = Dpm_obs.Probe.add "iterative.sweeps" n

let default_init n = function
  | Some v ->
      if Vec.dim v <> n then invalid_arg "Iterative: init dimension mismatch";
      Vec.copy v
  | None -> Vec.make n (1.0 /. float_of_int n)

let gauss_seidel_steady ?(tol = 1e-12) ?(max_iter = 100_000)
    ?(guard = fun () -> ()) ?init q =
  let n = Sparse.rows q in
  if Sparse.cols q <> n then
    invalid_arg "Iterative.gauss_seidel_steady: not square";
  let diag = Vec.create n in
  Sparse.iter q (fun i j x -> if i = j then diag.(i) <- x);
  Array.iteri
    (fun i x ->
      if x >= 0.0 then
        invalid_arg
          (Printf.sprintf
             "Iterative.gauss_seidel_steady: nonnegative diagonal at row %d" i))
    diag;
  (* Column access pattern: sweep over rows of the transpose. *)
  let qt = Sparse.transpose q in
  let p = Vec.normalize1 (default_init n init) in
  (* Buffers are preallocated and the accumulator hoisted: a sweep
     allocates nothing.  Arithmetic order matches the historical
     copy/normalize1/sub version bitwise. *)
  let prev = Vec.create n in
  let acc = ref 0.0 in
  let iterations = ref 0 and change = ref infinity in
  while !change > tol && !iterations < max_iter do
    guard ();
    Vec.blit ~src:p ~dst:prev;
    for j = 0 to n - 1 do
      acc := 0.0;
      Sparse.iter_row qt j (fun i qij -> if i <> j then acc := !acc +. (p.(i) *. qij));
      p.(j) <- !acc /. -.diag.(j)
    done;
    let s = Vec.sum p in
    if s = 0.0 || not (Float.is_finite s) then
      invalid_arg
        "Iterative.gauss_seidel_steady: iterate sum is zero or not finite";
    let inv = 1.0 /. s in
    for j = 0 to n - 1 do
      p.(j) <- inv *. p.(j)
    done;
    acc := 0.0;
    for j = 0 to n - 1 do
      acc := !acc +. Float.abs (p.(j) -. prev.(j))
    done;
    change := !acc;
    observe_residual !change;
    incr iterations
  done;
  count_sweeps !iterations;
  let residual = Vec.norm_inf (Sparse.vec_mul p q) in
  {
    solution = p;
    iterations = !iterations;
    residual;
    converged = !change <= tol;
  }
