type solution = {
  actions : int array;
  gain : float;
  iterations : int;
  provenance : Dpm_trace.Provenance.t;
}

let solve ?deadline_s model =
  Result.map
    (fun (r : Dpm_ctmdp.Policy_iteration.result) ->
      {
        actions = Dpm_ctmdp.Policy.actions model r.policy;
        gain = r.gain;
        iterations = r.iterations;
        provenance = r.provenance;
      })
    (Dpm_cache.Solve_cache.solve model ~miss:(fun () ->
         Dpm_robust.Policy_iteration.solve_r ?deadline_s model))

let closed_loop model ~actions =
  let policy = Dpm_ctmdp.Policy.of_actions model actions in
  ( Dpm_ctmdp.Policy.generator model policy,
    Dpm_ctmdp.Policy.cost_vector model policy )

let stationary_gain ?guard model ~actions =
  let gen, costs = closed_loop model ~actions in
  let pi = Dpm_ctmc.Steady_state.solve ?guard gen in
  Dpm_ctmc.Steady_state.expected_value pi (fun i -> costs.(i))
