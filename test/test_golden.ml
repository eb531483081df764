(* Golden regression pins for the paper instance (Table 2/3 regime):
   the optimal gain, the separated power/delay metrics, and the exact
   per-state policy at representative weights.  The values below were
   produced by this repository's own solver; the test exists so a
   future refactor (solver, model builder, cache, warm starts) cannot
   silently drift the reproduction.  Tolerances are 1e-9 — far below
   physical meaning, far above float noise; the policies must match
   exactly. *)

open Dpm_core

(* (weight, gain, power, avg_waiting_requests, actions per state) *)
let pins =
  [
    ( 0.1,
      9.3400113186191298,
      8.9102056215808325,
      4.2980569703829472,
      [| 0; 0; 0; 0; 0; 0; 2; 2; 2; 2; 2; 0; 2; 2; 2; 2; 2; 0; 1; 1; 1; 1; 1 |]
    );
    ( 1.0,
      11.951281331062688,
      10.959834108007252,
      0.99144722305543909,
      [| 0; 0; 0; 0; 0; 0; 2; 0; 0; 0; 2; 0; 2; 2; 0; 0; 2; 0; 1; 0; 0; 0; 0 |]
    );
    ( 5.0,
      14.352171865899177,
      11.803888142719996,
      0.50965674463583766,
      [| 0; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0 |]
    );
    ( 20.0,
      21.997023035436758,
      11.803888142719996,
      0.50965674463583766,
      [| 0; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 1; 0; 0; 0; 0 |]
    );
    ( 100.0,
      62.612288673740295,
      12.166742453562815,
      0.5044554622017744,
      [| 0; 0; 0; 0; 0; 0; 2; 0; 0; 0; 0; 0; 2; 0; 1; 1; 1; 1; 1; 0; 0; 0; 0 |]
    );
  ]

let paper_instance_pins () =
  (* Cold solves: the pins must hold independently of cache state. *)
  Dpm_cache.Solve_cache.with_capacity 0 @@ fun () ->
  let sys = Paper_instance.system () in
  Alcotest.(check int) "state count" 23 (Sys_model.num_states sys);
  List.iter
    (fun (weight, gain, power, waiting, actions) ->
      let s = Optimize.solve ~weight sys in
      Test_util.check_close ~tol:1e-9
        (Printf.sprintf "gain at w=%g" weight)
        gain s.Optimize.gain;
      Test_util.check_close ~tol:1e-9
        (Printf.sprintf "power at w=%g" weight)
        power s.Optimize.metrics.Analytic.power;
      Test_util.check_close ~tol:1e-9
        (Printf.sprintf "waiting at w=%g" weight)
        waiting s.Optimize.metrics.Analytic.avg_waiting_requests;
      if s.Optimize.actions <> actions then
        Alcotest.failf "policy drifted at w=%g: got [|%s|]" weight
          (String.concat "; "
             (Array.to_list (Array.map string_of_int s.Optimize.actions))))
    pins

let warm_path_matches_pins () =
  (* The same pins must hold when the answers come through the warm
     wavefront and then the cache — the two new result paths. *)
  Dpm_cache.Solve_cache.with_capacity 16 @@ fun () ->
  let sys = Paper_instance.system () in
  let weights = List.map (fun (w, _, _, _, _) -> w) pins in
  let check_sweep sols =
    List.iter2
      (fun (weight, gain, _, _, actions) (s : Optimize.solution) ->
        Test_util.check_close ~tol:1e-9
          (Printf.sprintf "sweep gain at w=%g" weight)
          gain s.Optimize.gain;
        if s.Optimize.actions <> actions then
          Alcotest.failf "sweep policy drifted at w=%g" weight)
      pins sols
  in
  check_sweep (Optimize.sweep sys ~weights);
  (* Second pass: served from the cache. *)
  check_sweep (Optimize.sweep sys ~weights);
  if not (Dpm_cache.Solve_cache.hit_ratio () > 0.0) then
    Alcotest.fail "second sweep did not hit the cache"

let implicit_path_matches_pins () =
  (* The matrix-free sweep evaluator, called directly on each pinned
     policy (the solver itself uses dense LU at this size), must
     reproduce the pinned gain within 1e-9 and confirm the policy
     optimal: improvement against its bias changes no state.  State 0
     is transient under these policies, so the reference state is the
     most probable state of the closed loop's stationary distribution
     (GTH), which is recurrent.  The sweeps then answer at every
     weight but 0.1, where the stationary sweep does not converge
     within its budget and dense LU answers instead. *)
  let sys = Paper_instance.system () in
  let fallbacks =
    List.map
      (fun (weight, gain, _, _, actions) ->
        let m = Sys_model.to_ctmdp sys ~weight in
        let p = Dpm_ctmdp.Policy.of_actions m actions in
        let pi = Dpm_ctmc.Steady_state.solve (Dpm_ctmdp.Policy.generator m p) in
        let ref_state = ref 0 in
        Array.iteri (fun i x -> if x > pi.(!ref_state) then ref_state := i) pi;
        let e, counts =
          Dpm_trace.Provenance.collect (fun () ->
              Dpm_ctmdp.Policy_iteration.evaluate_implicit
                ~ref_state:!ref_state m p)
        in
        Test_util.check_close ~tol:1e-9
          (Printf.sprintf "implicit gain at w=%g" weight)
          gain e.Dpm_ctmdp.Policy_iteration.gain;
        let _, changed =
          Dpm_ctmdp.Policy_iteration.improve m e ~incumbent:p
        in
        Alcotest.(check int)
          (Printf.sprintf "pinned policy stable at w=%g" weight)
          0 changed;
        (weight, counts.Dpm_trace.Provenance.sparse_fallbacks))
      pins
  in
  Alcotest.(check (list (pair (float 0.0) int)))
    "dense fallbacks per weight"
    (List.map (fun (w, _, _, _, _) -> (w, if w = 0.1 then 1 else 0)) pins)
    fallbacks

let suite =
  [
    Alcotest.test_case "paper-instance gains and policies" `Quick
      paper_instance_pins;
    Alcotest.test_case "warm/cached paths reproduce the pins" `Quick
      warm_path_matches_pins;
    Alcotest.test_case "implicit eval path reproduces the pins" `Quick
      implicit_path_matches_pins;
  ]
