open Dpm_linalg

type result = {
  policy : Policy.t;
  gain_lower : float;
  gain_upper : float;
  values : Vec.t;
  iterations : int;
  converged : bool;
  provenance : Dpm_trace.Provenance.t;
}

let solve ?(tol = 1e-9) ?(max_iter = 1_000_000) ?init_values
    ?(guard = fun () -> ()) m =
  Dpm_obs.Span.with_ "value_iteration" @@ fun () ->
  let t0 = Dpm_obs.Probe.now () in
  let origin =
    match init_values with
    | Some _ -> Dpm_trace.Provenance.Warm
    | None -> Dpm_trace.Provenance.Cold
  in
  let n = Model.num_states m in
  let u = Model.max_exit_rate m in
  (* Strictly above the max exit rate so every state keeps a self-loop
     and the uniformized chain is aperiodic. *)
  let lam = if u = 0.0 then 1.0 else 1.05 *. u in
  let backup v i k =
    let c = Model.choice m i k in
    (* c/L + v(i) + (1/L) sum_j rate_ij (v(j) - v(i)) *)
    List.fold_left
      (fun acc (j, r) -> acc +. (r /. lam *. (v.(j) -. v.(i))))
      ((c.Model.cost /. lam) +. v.(i))
      c.Model.rates
  in
  let v0 =
    match init_values with
    | None -> Vec.create n
    | Some v0 ->
        if Vec.dim v0 <> n then
          invalid_arg "Value_iteration.solve: init_values dimension mismatch";
        Array.iter
          (fun x ->
            if not (Float.is_finite x) then
              invalid_arg "Value_iteration.solve: init_values must be finite")
          v0;
        Dpm_obs.Probe.incr "value_iteration.warm_starts";
        (* Re-center on state 0 exactly as every sweep below does, so
           a warm start only shifts the starting point of the span
           contraction, never the invariant. *)
        let offset = v0.(0) in
        Vec.init n (fun i -> v0.(i) -. offset)
  in
  let v = ref v0 in
  let iterations = ref 0 in
  let lower = ref neg_infinity and upper = ref infinity in
  let converged = ref false in
  while (not !converged) && !iterations < max_iter do
    guard ();
    let next =
      Vec.init n (fun i ->
          let best = ref (backup !v i 0) in
          for k = 1 to Model.num_choices m i - 1 do
            best := Float.min !best (backup !v i k)
          done;
          !best)
    in
    let diff = Vec.sub next !v in
    let span = Vec.span diff in
    (* Per-step gain bounds; scale by lam for continuous time. *)
    lower := lam *. Array.fold_left Float.min infinity diff;
    upper := lam *. Array.fold_left Float.max neg_infinity diff;
    (* Keep values bounded by re-centering on state 0. *)
    let offset = next.(0) in
    v := Vec.map (fun x -> x -. offset) next;
    incr iterations;
    if span < tol then converged := true
  done;
  let values = !v and iterations = !iterations in
  let lower = !lower and upper = !upper and converged = !converged in
  Dpm_obs.Probe.incr "value_iteration.solves";
  Dpm_obs.Probe.add "value_iteration.iterations" iterations;
  Dpm_obs.Probe.set "value_iteration.gain_span" (upper -. lower);
  let greedy =
    Array.init n (fun i ->
        let best = ref 0 and best_value = ref (backup values i 0) in
        for k = 1 to Model.num_choices m i - 1 do
          let value = backup values i k in
          if value < !best_value then begin
            best := k;
            best_value := value
          end
        done;
        !best)
  in
  {
    policy = Policy.of_choice_indices m greedy;
    gain_lower = lower;
    gain_upper = upper;
    values;
    iterations;
    converged;
    provenance =
      (* VI has no retry machinery; its counts are structurally empty. *)
      (let (), counts = Dpm_trace.Provenance.collect (fun () -> ()) in
       Dpm_trace.Provenance.of_counts ~method_:"value_iteration"
         ~iterations ~origin
         ~wall_s:(Dpm_obs.Probe.now () -. t0)
         ~eval_path:"uniformized" ~residual:(upper -. lower) counts);
  }
