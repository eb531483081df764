(* simulate: an offline batch at a fixed input size.  Set-up solves
   the optimal paper-instance policy and warms the fleet's per-server
   solves; the timed pass then runs only event loops: two Power_sim
   runs of that policy (Poisson and bursty MMPP arrivals) and one
   Fleet_sim run of a 120-server fleet.  An evaluation-layer change
   should leave this workload unchanged. *)

open Dpm_core
open Common
module Power_sim = Dpm_sim.Power_sim
module Workload = Dpm_sim.Workload
module Controller = Dpm_sim.Controller
module Spec = Dpm_fleet.Spec
module Cluster = Dpm_fleet.Cluster
module Fleet_sim = Dpm_fleet.Fleet_sim

let weight = 1.0
let requests = 250_000

(* Section V check: the simulated Poisson run against the analytic
   stationary values of the same policy. *)
let power_tol = 0.02
let queue_tol = 0.05

(* The bench/fleet.ml fleet (120 servers, three tiers of the paper SP
   at queue capacities 5..7) over the first half of its day/night plan
   (5.7e5 arrivals), except that at least 100 servers stay on.  Fleet_sim.run re-solves
   the cluster CTMDP on every call, outside the solve cache; with
   bench/fleet.ml's min_active = 4 that CTMDP has 351 states and its
   dense policy iteration is most of the run, while at 100 it has 63
   and the run is the event loop. *)
let fleet_spec () =
  Spec.create ~weight ~boot_rate:0.5 ~boot_energy:50.0 ~shutdown_rate:1.0
    ~shutdown_energy:10.0 ~min_active:100 ~loss_penalty:100.0
    (List.init 3 (fun i ->
         Spec.group
           ~name:(Printf.sprintf "tier%d" i)
           ~sp:(Paper_instance.service_provider ())
           ~queue_capacity:(Paper_instance.queue_capacity + i)
           ~count:40 ~off_power:0.1 ()))

let segments = [ (12_000.0, 25.0); (21_000.0, 10.0) ]
let final_rate = 20.0
let horizon = 30_000.0

(* The cluster load Fleet_sim.run derives from that plan. *)
let fleet_load =
  Cluster.cyclic_load [ (25.0, 12_000.0); (10.0, 9_000.0); (20.0, 9_000.0) ]

type env = {
  sys : Sys_model.t;
  sol : Optimize.solution;
  spec : Spec.t;
  seeds : int64 array;  (** poisson, mmpp, fleet *)
}

let setup_once ~seed =
  Dpm_cache.Solve_cache.clear ();
  let sys = Paper_instance.system () in
  let sol = Optimize.solve ~weight sys in
  let spec = fleet_spec () in
  ignore (Cluster.solve ~domains:1 spec ~load:fleet_load);
  let seeds =
    Array.of_list (Dpm_prob.Rng.seed_stream ~base:(Int64.of_int seed) 3)
  in
  { sys; sol; spec; seeds }

(* What a pass keeps: timings, counts and check outcomes.  The
   simulation results themselves are dropped as soon as they are
   checked, so the heap does not grow with the number of passes. *)
type pass = {
  poisson_s : float;
  mmpp_s : float;
  fleet_s : float;
  sim_events : int;  (** arrivals + completions + switches, both runs *)
  fleet_events : int;
  deploy_hits : int;
  deploy_misses : int;
  checked : int;
  passed : int;
  summary : string;
}

let sim_run env ~seed workload =
  Power_sim.run ~seed ~sys:env.sys ~workload
    ~controller:(Controller.of_solution env.sys env.sol)
    ~stop:(Power_sim.Requests requests) ()

let events (r : Power_sim.result) = r.generated + r.completed + r.switch_count

let conserved (r : Power_sim.result) =
  r.generated = r.accepted + r.lost && r.completed <= r.accepted

(* The checks of one pass, each one operation. *)
let checks env (poisson : Power_sim.result) (mmpp : Power_sim.result)
    (fleet : Fleet_sim.result) =
  let mt = env.sol.Optimize.metrics in
  let per_server =
    Array.fold_left
      (fun acc -> function
        | Some (r : Power_sim.result) -> acc + r.generated
        | None -> acc)
      0 fleet.Fleet_sim.server_results
  in
  [
    conserved poisson
    && rel_gap poisson.avg_power mt.Analytic.power <= power_tol
    && rel_gap poisson.avg_waiting_requests mt.Analytic.avg_waiting_requests
       <= queue_tol;
    conserved mmpp;
    fleet.Fleet_sim.generated = per_server
    && fleet.Fleet_sim.generated = fleet.Fleet_sim.accepted + fleet.Fleet_sim.lost
    && fleet.Fleet_sim.resolve_failures = 0;
  ]

let one_pass env =
  quiesce ();
  let poisson, poisson_s =
    timed (fun () ->
        span "sim.poisson" (fun () ->
            sim_run env ~seed:env.seeds.(0)
              (Workload.poisson ~rate:Paper_instance.arrival_rate)))
  in
  let mmpp, mmpp_s =
    timed (fun () ->
        span "sim.mmpp" (fun () ->
            sim_run env ~seed:env.seeds.(1)
              (Workload.mmpp ~rates:[| 0.05; 0.6 |]
                 ~switch_rate:[| [| 0.0; 0.01 |]; [| 0.02; 0.0 |] |])))
  in
  let fleet, fleet_s =
    timed (fun () ->
        span "fleet.sim" (fun () ->
            Fleet_sim.run ~domains:1 ~seed:env.seeds.(2) env.spec ~segments
              ~final_rate ~horizon))
  in
  let results = checks env poisson mmpp fleet in
  let mt = env.sol.Optimize.metrics in
  {
    poisson_s;
    mmpp_s;
    fleet_s;
    sim_events = events poisson + events mmpp;
    fleet_events = fleet.Fleet_sim.events;
    deploy_hits = fleet.Fleet_sim.cache_hits;
    deploy_misses = fleet.Fleet_sim.cache_misses;
    checked = List.length results;
    passed = List.length (List.filter Fun.id results);
    summary =
      Printf.sprintf
        "poisson: %d events, power %.4f W (analytic %.4f), queue %.4f (analytic %.4f)\n\
         mmpp:    %d events, power %.4f W, loss %.4f\n\
         fleet:   %d events, %d arrivals on %d servers, deploy hits %d / misses %d"
        (events poisson) poisson.avg_power mt.Analytic.power
        poisson.avg_waiting_requests mt.Analytic.avg_waiting_requests (events mmpp)
        mmpp.avg_power mmpp.loss_probability fleet.Fleet_sim.events
        fleet.Fleet_sim.generated fleet.Fleet_sim.num_servers
        fleet.Fleet_sim.cache_hits fleet.Fleet_sim.cache_misses;
  }

let pass_wall p = p.poisson_s +. p.mmpp_s +. p.fleet_s

let count passes =
  List.fold_left
    (fun (att, failed) p -> (att + p.checked, failed + (p.checked - p.passed)))
    (0, 0) passes

let print_passes passes =
  print_endline (List.hd passes).summary;
  print_pass_walls (List.map pass_wall passes)

(* Lower quartile of each run's time over the passes. *)
let run_times passes =
  let lq f = lower_quartile (List.map f passes) in
  (lq (fun p -> p.poisson_s), lq (fun p -> p.mmpp_s), lq (fun p -> p.fleet_s))

let detail_of passes =
  let p = List.hd passes in
  let poisson_s, mmpp_s, fleet_s = run_times passes in
  [
    m "sim_events_per_s" "1/s" (float_of_int p.sim_events /. (poisson_s +. mmpp_s));
    m "fleet_events_per_s" "1/s" (float_of_int p.fleet_events /. fleet_s);
    m "passes" "count" (float_of_int (List.length passes));
  ]

let run_untraced ~seed ~seconds =
  Dpm_cache.Solve_cache.set_capacity 4096;
  let ms, passes =
    measure ~seconds ~setup:(fun () -> setup_once ~seed) ~pass:one_pass
  in
  print_passes passes;
  let attempted, failed = count passes in
  let poisson_s, mmpp_s, fleet_s = run_times passes in
  let gated, seconds =
    timing_metrics ms
      ~work_s:(poisson_s +. mmpp_s +. fleet_s)
      ~op_geomean_s:(geomean [ poisson_s; mmpp_s; fleet_s ])
  in
  {
    attempted;
    failed;
    end_to_end =
      (m "setup_s" "s" ms.setup_s :: gated)
      @ [
          m "peak_heap_mb" "MB" ms.peak_mb;
          m "ok_frac" "ratio" (float_of_int (attempted - failed) /. float_of_int attempted);
        ];
    per_layer = [];
    detail = seconds @ detail_of passes;
  }

let run_traced ~seed ~seconds ~chrome =
  Dpm_cache.Solve_cache.set_capacity 4096;
  let env = setup_once ~seed in
  let plain = repeat_for ~seconds:(seconds /. 2.0) ~min_reps:2 (fun _ -> one_pass env) in
  let traced_passes, reg, recorder =
    traced (fun () ->
        repeat_for ~seconds:(seconds /. 2.0) ~min_reps:2 (fun _ -> one_pass env))
  in
  let events_list = Dpm_trace.Recorder.events recorder in
  write_chrome chrome recorder events_list;
  let st = self_times events_list in
  print_self_table ~workload:"simulate" st;
  print_passes traced_passes;
  let k = float_of_int (List.length traced_passes) in
  let per_pass x = x /. k in
  let total f = sum (List.map f traced_passes) in
  let hits = total (fun p -> float_of_int p.deploy_hits) in
  let lookups = hits +. total (fun p -> float_of_int p.deploy_misses) in
  let per_layer =
    [
      ("sim.run_s.poisson", per_pass (span_total st "sim.poisson"));
      ("sim.run_s.mmpp", per_pass (span_total st "sim.mmpp"));
      ("sim.events", per_pass (total (fun p -> float_of_int p.sim_events)));
      ("sim.decisions", per_pass (read reg "sim.decisions"));
      ("fleet.sim_s", per_pass (span_total st "fleet.sim"));
      ("fleet.events", per_pass (total (fun p -> float_of_int p.fleet_events)));
      ("fleet.deploy_hit_ratio", if lookups > 0.0 then hits /. lookups else 0.0);
      ("ctmdp.pi_iterations", per_pass (read reg "policy_iteration.iterations"));
      ("ctmdp.eval_s", per_pass (read reg "policy_iteration.eval_time_seconds"));
      ("ctmdp.improve_s", per_pass (read reg "policy_iteration.improve_time_seconds"));
      ("linalg.lu_factorizations", per_pass (read reg "lu.factorizations"));
      ( "trace.simulate_sim_frac",
        (layer_self st "sim" +. layer_self st "fleet") /. Float.max 1e-12 st.root_wall );
      ( "trace.overhead_frac",
        (lower_quartile (List.map pass_wall traced_passes)
        /. lower_quartile (List.map pass_wall plain))
        -. 1.0 );
    ]
  in
  let attempted, failed = count (plain @ traced_passes) in
  { attempted; failed; end_to_end = []; per_layer; detail = detail_of plain }
