open Dpm_ctmdp

let t = Alcotest.test_case

let speed_control ~holding ~fast_cost =
  let lam = 1.0 in
  Model.create ~num_states:3 (fun i ->
      let arrivals = if i < 2 then [ (i + 1, lam) ] else [] in
      let serve rate = if i > 0 then [ (i - 1, rate) ] else [] in
      let hold = holding *. float_of_int i in
      [
        { Model.action = 0; rates = arrivals @ serve 1.5; cost = hold +. 1.0 };
        { Model.action = 1; rates = arrivals @ serve 4.0; cost = hold +. fast_cost };
      ])

let agrees_with_policy_iteration () =
  List.iter
    (fun (holding, fast_cost) ->
      let m = speed_control ~holding ~fast_cost in
      let pi = Policy_iteration.solve m in
      let vi = Value_iteration.solve ~tol:1e-12 m in
      Alcotest.(check bool) "converged" true vi.Value_iteration.converged;
      Alcotest.(check bool)
        (Printf.sprintf "PI gain within VI bounds (h=%g f=%g)" holding fast_cost)
        true
        (vi.Value_iteration.gain_lower -. 1e-7 <= pi.Policy_iteration.gain
        && pi.Policy_iteration.gain <= vi.Value_iteration.gain_upper +. 1e-7);
      (* The greedy policy read off VI achieves the same gain. *)
      let e = Policy_iteration.evaluate m vi.Value_iteration.policy in
      Test_util.check_close ~tol:1e-6 "VI policy gain" pi.Policy_iteration.gain
        e.Policy_iteration.gain)
    [ (0.1, 3.0); (1.0, 3.0); (5.0, 3.0); (5.0, 1.2) ]

let bounds_tighten () =
  let m = speed_control ~holding:2.0 ~fast_cost:3.0 in
  let loose = Value_iteration.solve ~tol:1e-2 ~max_iter:1_000_000 m in
  let tight = Value_iteration.solve ~tol:1e-10 m in
  Alcotest.(check bool) "tight interval smaller" true
    (tight.Value_iteration.gain_upper -. tight.Value_iteration.gain_lower
    <= loose.Value_iteration.gain_upper -. loose.Value_iteration.gain_lower +. 1e-12)

let iteration_cap_respected () =
  let m = speed_control ~holding:2.0 ~fast_cost:3.0 in
  let r = Value_iteration.solve ~tol:1e-15 ~max_iter:3 m in
  Alcotest.(check bool) "not converged in 3 sweeps" false r.Value_iteration.converged;
  Alcotest.(check int) "stopped at cap" 3 r.Value_iteration.iterations

let single_action_model_evaluates () =
  (* With one action everywhere, VI just evaluates the chain. *)
  let m =
    Model.create ~num_states:2 (fun i ->
        if i = 0 then [ { Model.action = 0; rates = [ (1, 1.0) ]; cost = 4.0 } ]
        else [ { Model.action = 0; rates = [ (0, 3.0) ]; cost = 8.0 } ])
  in
  let r = Value_iteration.solve ~tol:1e-12 m in
  Alcotest.(check bool) "gain near 5" true
    (r.Value_iteration.gain_lower <= 5.0 +. 1e-6
    && 5.0 -. 1e-6 <= r.Value_iteration.gain_upper)

let suite =
  [
    t "agrees with policy iteration" `Quick agrees_with_policy_iteration;
    t "bounds tighten with tol" `Quick bounds_tighten;
    t "iteration cap" `Quick iteration_cap_respected;
    t "single-action evaluation" `Quick single_action_model_evaluates;
  ]
