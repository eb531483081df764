open Dpm_ctmdp

let t = Alcotest.test_case

(* An M/M/1/2 admission-control-flavored CTMDP: in each queue state the
   controller picks a service speed; faster speed costs more per unit
   time but drains the queue (holding cost). *)
let speed_control ~holding ~fast_cost =
  let lam = 1.0 in
  Model.create ~num_states:3 (fun i ->
      let arrivals = if i < 2 then [ (i + 1, lam) ] else [] in
      let serve rate = if i > 0 then [ (i - 1, rate) ] else [] in
      let hold = holding *. float_of_int i in
      [
        { Model.action = 0 (* slow *); rates = arrivals @ serve 1.5; cost = hold +. 1.0 };
        { Model.action = 1 (* fast *); rates = arrivals @ serve 4.0; cost = hold +. fast_cost };
      ])

let evaluation_matches_hand_solution () =
  (* Fixed policy on a 2-state chain: gain = stationary cost. *)
  let m =
    Model.create ~num_states:2 (fun i ->
        if i = 0 then [ { Model.action = 0; rates = [ (1, 1.0) ]; cost = 4.0 } ]
        else [ { Model.action = 0; rates = [ (0, 3.0) ]; cost = 8.0 } ])
  in
  let p = Policy.uniform_first m in
  let e = Policy_iteration.evaluate m p in
  (* pi = (0.75, 0.25) -> gain = 5. *)
  Test_util.check_close ~tol:1e-10 "gain" 5.0 e.Policy_iteration.gain;
  Test_util.check_close ~tol:1e-10 "reference bias" 0.0 e.Policy_iteration.bias.(0);
  (* Bias equation at state 0: c0 - g + G00 v0 + G01 v1 = 0
     -> 4 - 5 + 1*(v1 - 0) = 0 -> v1 = 1. *)
  Test_util.check_close ~tol:1e-10 "bias state 1" 1.0 e.Policy_iteration.bias.(1)

let solve_matches_brute_force () =
  List.iter
    (fun (holding, fast_cost) ->
      let m = speed_control ~holding ~fast_cost in
      let r = Policy_iteration.solve m in
      let _, best_gain = Policy_iteration.brute_force m in
      Test_util.check_close ~tol:1e-9
        (Printf.sprintf "optimal gain (h=%g, f=%g)" holding fast_cost)
        best_gain r.Policy_iteration.gain)
    [ (0.1, 3.0); (1.0, 3.0); (5.0, 3.0); (5.0, 1.2); (0.01, 10.0) ]

let cheap_fast_service_always_chosen () =
  (* If fast costs the same as slow, fast dominates wherever there is
     a queue to drain. *)
  let m = speed_control ~holding:2.0 ~fast_cost:1.0 in
  let r = Policy_iteration.solve m in
  Alcotest.(check int) "fast in state 1" 1
    (Policy.action m r.Policy_iteration.policy 1);
  Alcotest.(check int) "fast in state 2" 1
    (Policy.action m r.Policy_iteration.policy 2)

let trace_is_monotone_and_terminates () =
  let m = speed_control ~holding:2.0 ~fast_cost:3.0 in
  let r = Policy_iteration.solve m in
  Alcotest.(check bool) "few iterations" true (r.Policy_iteration.iterations <= 10);
  let gains =
    List.map (fun s -> s.Policy_iteration.evaluation.Policy_iteration.gain)
      r.Policy_iteration.trace
  in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && nonincreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "gains do not increase across iterations" true
    (nonincreasing gains);
  (* Last step reports zero changes. *)
  (match List.rev r.Policy_iteration.trace with
  | last :: _ -> Alcotest.(check int) "fixed point" 0 last.Policy_iteration.changed_states
  | [] -> Alcotest.fail "empty trace")

let solve_from_any_start_same_gain () =
  let m = speed_control ~holding:1.5 ~fast_cost:2.5 in
  let r0 = Policy_iteration.solve m in
  Seq.iter
    (fun p ->
      let r = Policy_iteration.solve ~init:p m in
      Test_util.check_close ~tol:1e-9 "gain independent of start"
        r0.Policy_iteration.gain r.Policy_iteration.gain)
    (Policy.enumerate m)

let gain_invariant_to_reference_state () =
  let m = speed_control ~holding:2.0 ~fast_cost:3.0 in
  let p = Policy.uniform_first m in
  let e0 = Policy_iteration.evaluate ~ref_state:0 m p in
  let e2 = Policy_iteration.evaluate ~ref_state:2 m p in
  Test_util.check_close ~tol:1e-9 "same gain" e0.Policy_iteration.gain
    e2.Policy_iteration.gain;
  (* Biases differ by a constant: v0 - v2 shifts. *)
  let d02 = e0.Policy_iteration.bias.(1) -. e2.Policy_iteration.bias.(1) in
  let d01 = e0.Policy_iteration.bias.(2) -. e2.Policy_iteration.bias.(2) in
  Test_util.check_close ~tol:1e-9 "bias shift constant" d02 d01

let multichain_policies_handled () =
  (* Two absorbing "orbits": the stay/stay policy is multichain and
     its exact evaluation is singular.  evaluate must raise, the
     robust variant must answer, and solve must still find the
     optimum (park in the cheap state). *)
  let m =
    Model.create ~num_states:2 (fun i ->
        if i = 0 then
          [
            { Model.action = 0; rates = []; cost = 1.0 };
            { Model.action = 1; rates = [ (1, 1.0) ]; cost = 2.0 };
          ]
        else
          [
            { Model.action = 0; rates = []; cost = 1.5 };
            { Model.action = 1; rates = [ (0, 1.0) ]; cost = 2.0 };
          ])
  in
  let stay_stay = Policy.of_actions m [| 0; 0 |] in
  (match Policy_iteration.evaluate m stay_stay with
  | exception Dpm_linalg.Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular on the multichain policy");
  let e = Policy_iteration.evaluate_robust m stay_stay in
  (* The restart perturbation anchors the gain at the reference
     orbit's cost rate. *)
  Test_util.check_relative ~rel:1e-6 "perturbed gain" 1.0 e.Policy_iteration.gain;
  let r = Policy_iteration.solve ~init:stay_stay m in
  Test_util.check_relative ~rel:1e-6 "optimal gain" 1.0 r.Policy_iteration.gain;
  Alcotest.(check int) "cheap state stays" 0
    (Policy.action m r.Policy_iteration.policy 0)

(* Random small CTMDPs; brute force confirms optimality. *)
let random_mdp_gen =
  QCheck2.Gen.(
    int_range 2 4 >>= fun n ->
    let choice_gen state =
      map2
        (fun costs extra ->
          (* A cycle edge guarantees unichain under every policy. *)
          let base = ((state + 1) mod n, 0.4 +. Float.abs extra) in
          { Model.action = 0; rates = [ base ]; cost = costs }
        )
        (float_range 0.0 10.0) (float_range 0.1 3.0)
    in
    let alt_gen state =
      map2
        (fun cost r ->
          let second =
            (* Skip the two-hop edge when it would be a self-rate. *)
            if (state + 2) mod n <> state then [ ((state + 2) mod n, r) ] else []
          in
          { Model.action = 1; rates = ((state + 1) mod n, 0.2) :: second; cost })
        (float_range 0.0 10.0) (float_range 0.1 3.0)
    in
    map
      (fun rows -> Model.create ~num_states:n (fun i -> List.nth rows i))
      (flatten_l
         (List.init n (fun i ->
              map2 (fun a b -> [ a; b ]) (choice_gen i) (alt_gen i)))))

let prop_pi_beats_every_policy =
  Test_util.qtest ~count:60 "policy iteration is optimal (brute force)"
    random_mdp_gen (fun m ->
      let r = Policy_iteration.solve m in
      let _, best = Policy_iteration.brute_force m in
      r.Policy_iteration.gain <= best +. 1e-7)

let prop_bias_equations_hold =
  Test_util.qtest ~count:60 "relative value equations hold" random_mdp_gen
    (fun m ->
      let p = Policy.uniform_first m in
      let e = Policy_iteration.evaluate m p in
      let g = Policy.generator m p in
      let c = Policy.cost_vector m p in
      let n = Model.num_states m in
      let ok = ref true in
      for i = 0 to n - 1 do
        let flow = ref 0.0 in
        for j = 0 to n - 1 do
          flow := !flow +. (Dpm_ctmc.Generator.get g i j *. e.Policy_iteration.bias.(j))
        done;
        if Float.abs (c.(i) -. e.Policy_iteration.gain +. !flow) > 1e-7 then
          ok := false
      done;
      !ok)

(* --- guard threading through the evaluation sweeps ------------------

   The ?guard hook must reach the matrix-free Gauss-Seidel loops
   themselves — not just the policy-improvement loop — so a wall-clock
   deadline (or an injected stall) can abort a wedged evaluation
   mid-sweep.  A guard that raises Deadline_signal must propagate out
   as-is, never be swallowed into the dense fallback. *)
let signal = Dpm_robust.Error.Deadline_signal { budget_s = 0.0; elapsed_s = 0.0 }

let guard_reaches_evaluation_sweeps () =
  let m = speed_control ~holding:1.0 ~fast_cost:3.0 in
  let p = Policy.uniform_first m in
  let ticks = ref 0 in
  let guard () =
    incr ticks;
    if !ticks > 1 then raise signal
  in
  (match Policy_iteration.evaluate_implicit ~guard m p with
  | (_ : Policy_iteration.evaluation) ->
      Alcotest.fail "guard signal swallowed"
  | exception Dpm_robust.Error.Deadline_signal _ -> ());
  Alcotest.(check bool) "guard ticked inside the sweeps" true (!ticks > 1)

(* The paper SYS at queue capacity [q] (4q + 3 states; q = 64 gives
   259, above the 192-state sweep threshold), weight 1. *)
let paper_sys q =
  Dpm_core.Sys_model.to_ctmdp ~weight:1.0
    (Dpm_core.Sys_model.create
       ~sp:(Dpm_core.Paper_instance.service_provider ())
       ~queue_capacity:q ~arrival_rate:Dpm_core.Paper_instance.arrival_rate ())

let counter reg name =
  match Dpm_obs.Metrics.find reg name with
  | Some (Dpm_obs.Metrics.Counter_value k) -> k
  | _ -> 0

let solve_deadline_covers_implicit_eval () =
  (* Tick 1 is solve's own check at the top of the first iteration;
     tick 2 is the first stationary sweep of the first evaluation
     (259 states, so the sweeps evaluate, and the first-choice policy
     passes their reachability check).  A deadline firing there must
     surface as the typed error with no evaluation finished — were the
     sweeps deaf to the guard, the first evaluation would complete and
     the signal would only fire at the second iteration's top. *)
  let m = paper_sys 64 in
  let ticks = ref 0 in
  let guard () =
    incr ticks;
    if !ticks = 2 then raise signal
  in
  let reg = Dpm_obs.Metrics.create () in
  match
    Dpm_obs.Probe.with_active reg (fun () ->
        Dpm_robust.Guard.run (fun () -> Policy_iteration.solve ~guard m))
  with
  | Ok _ -> Alcotest.fail "deadline ignored by the sweep path"
  | Error (Dpm_robust.Error.Deadline_exceeded _) ->
      Alcotest.(check int) "aborted on tick 2" 2 !ticks;
      Alcotest.(check int) "no sweep evaluation finished" 0
        (counter reg "policy_iteration.implicit_evals");
      Alcotest.(check int) "no dense fallback ran" 0
        (counter reg "policy_iteration.sparse_fallbacks")
  | Error e ->
      Alcotest.failf "unexpected error class: %s"
        (Dpm_robust.Error.to_string e)

(* --- which backend answered ------------------------------------------ *)

let sweep_answers_paper_sys () =
  (* Where every state reaches the reference state, the sweeps must
     answer themselves — not quietly hand the policy to dense LU — and
     agree with dense LU to 1e-9 relative. *)
  let m = paper_sys 64 in
  let p = Policy.uniform_first m in
  let e, counts =
    Dpm_trace.Provenance.collect (fun () ->
        Policy_iteration.evaluate_implicit m p)
  in
  Alcotest.(check string) "answered by the sweeps" "implicit"
    (Option.value counts.Dpm_trace.Provenance.eval_path ~default:"");
  Alcotest.(check int) "no fallback" 0 counts.Dpm_trace.Provenance.sparse_fallbacks;
  let d = Policy_iteration.evaluate_robust m p in
  Test_util.check_relative ~rel:1e-9 "gain" d.Policy_iteration.gain
    e.Policy_iteration.gain;
  let scale = Dpm_linalg.Vec.norm_inf d.Policy_iteration.bias in
  let err =
    Dpm_linalg.Vec.norm_inf
      (Dpm_linalg.Vec.sub d.Policy_iteration.bias e.Policy_iteration.bias)
  in
  if err > 1e-9 *. scale then
    Alcotest.failf "bias differs by %g (relative %g)" err (err /. scale)

let fallback_counts_pinned () =
  (* Cold solves above the sweep threshold: how many iterations the
     sweeps handed to dense LU.  These pin today's behaviour — the
     reference state 0 is transient under most intermediate policies,
     so the reachability check sends them to dense.  A change that
     picks the reference from each policy's recurrent class should
     lower these counts, and update them here on purpose. *)
  let polling =
    Dpm_scenario.Polling.to_ctmdp
      (Dpm_scenario.Polling.create ~loss_penalty:0.5
         (List.mapi
            (fun i r ->
              Dpm_scenario.Polling.queue
                ~weight:(1.0 +. (0.5 *. float_of_int i))
                ~arrival_rate:r ~capacity:2
                ~service:(Dpm_scenario.Phase_type.exp_ 1.0)
                ~switch_over:(Dpm_scenario.Phase_type.exp_ 5.0)
                ())
            [ 0.2; 0.3; 0.4 ]))
  in
  let batching =
    Dpm_scenario.Batching.to_ctmdp ~weight:1.0
      (Dpm_scenario.Batching.create
         ~sys:
           (Dpm_core.Sys_model.create
              ~sp:(Dpm_core.Paper_instance.service_provider ())
              ~queue_capacity:100
              ~arrival_rate:Dpm_core.Paper_instance.arrival_rate ())
         ~max_batch:4
         ~service_rate:(fun k ->
           Dpm_core.Paper_instance.service_rate *. (float_of_int k ** 0.7))
         ~batch_energy:(fun _ -> 0.2)
         ())
  in
  List.iter
    (fun (label, m, fallbacks, iterations) ->
      let r = Policy_iteration.solve m in
      Alcotest.(check int) (label ^ ": iterations") iterations
        r.Policy_iteration.iterations;
      Alcotest.(check int)
        (label ^ ": sweep-to-dense fallbacks")
        fallbacks r.Policy_iteration.provenance.Dpm_trace.Provenance.sparse_fallbacks)
    [
      ("paper SYS Q=64", paper_sys 64, 3, 4);
      ("polling K=3 cap 2", polling, 8, 8);
      ("batching B=4 Q=100", batching, 6, 7);
    ]

let residual_is_last_evaluations () =
  (* Paper SYS Q=64: the sweeps answer iteration 1 and dense LU the
     other three, so the provenance residual must be dense LU's
     residual on the final policy — not the sweep residual left over
     from iteration 1. *)
  let m = paper_sys 64 in
  let r = Policy_iteration.solve m in
  let prov = r.Policy_iteration.provenance in
  Alcotest.(check int) "fallbacks" 3 prov.Dpm_trace.Provenance.sparse_fallbacks;
  Alcotest.(check string) "final evaluation is dense" "dense"
    prov.Dpm_trace.Provenance.eval_path;
  let _, last =
    Dpm_trace.Provenance.collect (fun () ->
        Policy_iteration.evaluate_robust m r.Policy_iteration.policy)
  in
  let expected = last.Dpm_trace.Provenance.residual in
  if not (Float.is_finite expected) then
    Alcotest.fail "dense LU noted no residual";
  Alcotest.(check int64) "residual of the final dense evaluation"
    (Int64.bits_of_float expected)
    (Int64.bits_of_float prov.Dpm_trace.Provenance.residual)

let suite =
  [
    t "evaluation hand-checked" `Quick evaluation_matches_hand_solution;
    t "guard reaches evaluation sweeps" `Quick guard_reaches_evaluation_sweeps;
    t "deadline covers implicit eval" `Quick solve_deadline_covers_implicit_eval;
    t "sweeps answer the paper SYS" `Quick sweep_answers_paper_sys;
    t "sweep fallback counts pinned" `Quick fallback_counts_pinned;
    t "provenance residual is the last evaluation's" `Quick
      residual_is_last_evaluations;
    t "matches brute force" `Quick solve_matches_brute_force;
    t "dominant action chosen" `Quick cheap_fast_service_always_chosen;
    t "trace monotone, terminates" `Quick trace_is_monotone_and_terminates;
    t "start-independent gain" `Quick solve_from_any_start_same_gain;
    t "reference-state invariance" `Quick gain_invariant_to_reference_state;
    t "multichain policies handled" `Quick multichain_policies_handled;
    prop_pi_beats_every_policy;
    prop_bias_equations_hold;
  ]
