type point = {
  rate : float;
  metrics : Analytic.metrics;
  objective : float;
  optimal_objective : float;
  regret : float;
}

let objective_of ~weight (m : Analytic.metrics) =
  m.Analytic.power +. (weight *. m.Analytic.avg_waiting_requests)

(* Returns the sensitivity point plus the re-optimized policy's action
   table, so sweeps can warm-start neighboring rates from it. *)
let point_at_warm sys ~actions ~weight ?init_actions rate =
  let sys' = Sys_model.with_arrival_rate sys rate in
  let metrics = Analytic.of_action_array sys' actions in
  let objective = objective_of ~weight metrics in
  let optimal = Optimize.solve ~weight ?init_actions sys' in
  let optimal_objective = objective_of ~weight optimal.Optimize.metrics in
  ( {
      rate;
      metrics;
      objective;
      optimal_objective;
      regret = objective -. optimal_objective;
    },
    optimal.Optimize.actions )

let point_at sys ~actions ~weight rate =
  fst (point_at_warm sys ~actions ~weight rate)

let check_sweep_args sys ~actions ~rates =
  if Array.length actions <> Sys_model.num_states sys then
    invalid_arg "Sensitivity.rate_sweep: action table size mismatch";
  List.iter
    (fun r ->
      if r <= 0.0 || not (Float.is_finite r) then
        invalid_arg "Sensitivity.rate_sweep: rates must be positive")
    rates

let rate_sweep_r ?domains ?(warm = true) sys ~actions ~weight ~rates =
  check_sweep_args sys ~actions ~rates;
  (* Each grid point re-solves the CTMDP, seeded (with [warm]) by an
     already-solved neighbor's re-optimized policy. *)
  List.map
    (fun (rate, r) -> (rate, Result.map fst r))
    (Optimize.warm_grid ~domains ~warm ~actions:snd
       (fun init_actions rate ->
         point_at_warm sys ~actions ~weight ?init_actions rate)
       rates)

let rate_sweep ?domains ?warm sys ~actions ~weight ~rates =
  check_sweep_args sys ~actions ~rates;
  List.map
    (fun (_, r) -> match r with Ok p -> p | Error exn -> raise exn)
    (rate_sweep_r ?domains ?warm sys ~actions ~weight ~rates)

let mismatch_regret sys ~weight ~design_rate ~true_rate =
  let design_sys = Sys_model.with_arrival_rate sys design_rate in
  let sol = Optimize.solve ~weight design_sys in
  (point_at sys ~actions:sol.Optimize.actions ~weight true_rate).regret

let break_even_estimation_error ?domains sys ~weight ~design_rate ~tolerance =
  if tolerance <= 0.0 then
    invalid_arg "Sensitivity.break_even_estimation_error: tolerance must be positive";
  let regret_at rel_err =
    (* Test both under- and over-estimation (a pair of independent
       solves, run on the pool); take the worse. *)
    match
      Dpm_par.parallel_map_list ?domains
        (fun true_rate -> mismatch_regret sys ~weight ~design_rate ~true_rate)
        [ design_rate /. (1.0 +. rel_err); design_rate *. (1.0 +. rel_err) ]
    with
    | [ lo; hi ] -> Float.max lo hi
    | _ -> assert false
  in
  (* Geometric search for a bracketing error, then bisection. *)
  let cap = 8.0 in
  let rec grow e = if e >= cap then cap else if regret_at e > tolerance then e else grow (2.0 *. e) in
  let hi = grow 0.01 in
  if hi >= cap then cap
  else begin
    let rec bisect lo hi k =
      if k = 0 then hi
      else begin
        let mid = 0.5 *. (lo +. hi) in
        if regret_at mid > tolerance then bisect lo mid (k - 1)
        else bisect mid hi (k - 1)
      end
    in
    bisect (hi /. 2.0) hi 12
  end
