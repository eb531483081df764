(* policy-ladder: cold optimal-policy requests, one after another, at
   weight 1, through the production entry points (Optimize.solve,
   Dpm_scenario.Solve.solve, Dpm_fleet.Cluster.solve), each followed by
   its GTH cross-check.  The solve cache is cleared before every
   request.  Large rungs put the time into evaluation (ctmdp + dense
   LU in linalg); small rungs expose the build/validate/cache overhead
   around it. *)

open Dpm_core
open Common
module Solve = Dpm_scenario.Solve
module Phase_type = Dpm_scenario.Phase_type
module Phased = Dpm_scenario.Phased
module Polling = Dpm_scenario.Polling
module Batching = Dpm_scenario.Batching
module Spec = Dpm_fleet.Spec
module Cluster = Dpm_fleet.Cluster
module Deploy = Dpm_fleet.Deploy
module Provenance = Dpm_trace.Provenance

let weight = 1.0

(* test_golden.ml's weight-1 pin for the paper instance. *)
let golden_gain_w1 = 11.951281331062688
let crosscheck_tol = 1e-6
let pin_tol = 1e-9
let families = [ "sys"; "phased"; "polling"; "batching"; "fleet" ]

type outcome = {
  states : int;
  gain : float;
  check_gain : float;  (** the independent GTH-side value *)
  ok : bool;
  eval_path : string;  (** from provenance; "n/a" where none is exposed *)
  sparse_fallbacks : int;  (** from provenance; -1 where none is exposed *)
  iterations : int;
}

type rung = {
  family : string;
  label : string;
  prepare : unit -> bool;  (** build and validate the input once *)
  model : (unit -> Dpm_ctmdp.Model.t) option;  (** for the fingerprint probe *)
  reps : int;
      (** cold requests timed back to back as one sample, so that no
          sample is a sub-millisecond timing *)
  request : unit -> outcome;
}

let of_provenance ~states ~gain ~check_gain ~ok (p : Provenance.t) =
  {
    states;
    gain;
    check_gain;
    ok;
    eval_path = p.Provenance.eval_path;
    sparse_fallbacks = p.Provenance.sparse_fallbacks;
    iterations = p.Provenance.iterations;
  }

let valid diags =
  not
    (List.exists
       (fun d -> d.Dpm_robust.Diagnostic.severity = Dpm_robust.Diagnostic.Error)
       diags)

(* The paper SP composed at queue capacity [q] and arrival rate [rate]. *)
let paper_sys ~q ~rate =
  Sys_model.create
    ~sp:(Paper_instance.service_provider ())
    ~queue_capacity:q ~arrival_rate:rate ()

let sys_request ~q ~rate ~pin () =
  let sys = span "core.build" (fun () -> paper_sys ~q ~rate) in
  let diags = span "robust.validate" (fun () -> Dpm_robust.Validate.system sys) in
  let sol = span "ctmdp.solve" (fun () -> Optimize.solve ~weight sys) in
  let model = span "core.build" (fun () -> Sys_model.to_ctmdp sys ~weight) in
  let check_gain =
    span "ctmc.crosscheck" (fun () ->
        Solve.stationary_gain model ~actions:sol.Optimize.actions)
  in
  let mt = sol.Optimize.metrics in
  let analytic = mt.Analytic.power +. (weight *. mt.Analytic.avg_waiting_requests) in
  let ok =
    valid diags
    && rel_gap sol.Optimize.gain check_gain <= crosscheck_tol
    && rel_gap analytic check_gain <= crosscheck_tol
    && match pin with Some g -> rel_gap sol.Optimize.gain g <= pin_tol | None -> true
  in
  of_provenance ~states:(Sys_model.num_states sys) ~gain:sol.Optimize.gain
    ~check_gain ~ok sol.Optimize.provenance

(* Scenario families: the caller builds the CTMDP, Solve.solve
   validates it (robust), looks up the cache and runs guarded PI. *)
let scenario_request build () =
  let model = span "scenario.build" build in
  match span "ctmdp.solve" (fun () -> Solve.solve model) with
  | Error _ ->
      {
        states = Dpm_ctmdp.Model.num_states model;
        gain = nan;
        check_gain = nan;
        ok = false;
        eval_path = "error";
        sparse_fallbacks = 0;
        iterations = 0;
      }
  | Ok sol ->
      let check_gain =
        span "ctmc.crosscheck" (fun () ->
            Solve.stationary_gain model ~actions:sol.Solve.actions)
      in
      of_provenance
        ~states:(Dpm_ctmdp.Model.num_states model)
        ~gain:sol.Solve.gain ~check_gain
        ~ok:(rel_gap sol.Solve.gain check_gain <= crosscheck_tol)
        sol.Solve.provenance

let phased_model ~q ~rate () =
  let ph =
    Phased.create
      ~sp:(Paper_instance.service_provider ())
      ~queue_capacity:q ~arrival_rate:rate
      ~service:(Phase_type.fit ~mean:(1.0 /. Paper_instance.service_rate) ~scv:0.25)
      ()
  in
  Phased.to_ctmdp ph ~weight

let polling_model ~capacity ~rates () =
  Polling.create ~loss_penalty:0.5
    (List.mapi
       (fun i r ->
         Polling.queue
           ~weight:(1.0 +. (0.5 *. float_of_int i))
           ~arrival_rate:r ~capacity
           ~service:(Phase_type.exp_ 1.0)
           ~switch_over:(Phase_type.exp_ 5.0)
           ())
       rates)
  |> Polling.to_ctmdp

let batching_model ~q ~rate () =
  Batching.create ~sys:(paper_sys ~q ~rate) ~max_batch:4
    ~service_rate:(fun k -> Paper_instance.service_rate *. (float_of_int k ** 0.7))
    ~batch_energy:(fun _ -> 0.2)
    ()
  |> fun b -> Batching.to_ctmdp b ~weight

(* The bench/fleet.ml fleet shape (three tiers of the paper SP at
   queue capacities 5..7) at [servers] servers, with the day/night
   load scaled to the fleet size. *)
let fleet_spec ~servers =
  Spec.create ~weight ~boot_rate:0.5 ~boot_energy:50.0 ~shutdown_rate:1.0
    ~shutdown_energy:10.0 ~min_active:4 ~loss_penalty:100.0
    (List.init 3 (fun i ->
         Spec.group
           ~name:(Printf.sprintf "tier%d" i)
           ~sp:(Paper_instance.service_provider ())
           ~queue_capacity:(Paper_instance.queue_capacity + i)
           ~count:(servers / 3) ~off_power:0.1 ()))

(* GTH side of the cluster check: the closed-loop stationary vector
   (Cluster.solve derives it by GTH elimination, disjoint from the
   bias equations) priced with the chosen action's running cost. *)
let cluster_stationary_cost (c : Cluster.t) =
  let nk = Array.length c.Cluster.counts in
  let sp = c.Cluster.spec in
  let acc = ref 0.0 in
  Array.iteri
    (fun s pi ->
      let m = s / nk and ki = s mod nk in
      let k = c.Cluster.counts.(ki) and tgt = c.Cluster.targets.(s) in
      let trans =
        if tgt > k then sp.Spec.boot_rate *. sp.Spec.boot_energy
        else if tgt < k then sp.Spec.shutdown_rate *. sp.Spec.shutdown_energy
        else 0.0
      in
      acc := !acc +. (pi *. (c.Cluster.stay_cost.(m).(ki) +. trans)))
    c.Cluster.stationary;
  !acc

let fleet_request ~servers ~scale () =
  let spec = span "fleet.build" (fun () -> fleet_spec ~servers) in
  let load =
    Cluster.cyclic_load
      [ (25.0 *. scale, 24_000.0); (10.0 *. scale, 18_000.0); (20.0 *. scale, 18_000.0) ]
  in
  let c = span "fleet.cluster_solve" (fun () -> Cluster.solve ~domains:1 spec ~load) in
  let active = Cluster.settle c ~phase:0 ~from:(Cluster.static_best c ~phase:0) in
  let d =
    span "fleet.deploy" (fun () ->
        Deploy.resolve ~domains:1 spec ~total_rate:load.Cluster.rates.(0) ~active)
  in
  let check_gain = span "ctmc.crosscheck" (fun () -> cluster_stationary_cost c) in
  {
    states = Array.length c.Cluster.stationary;
    gain = c.Cluster.gain;
    check_gain;
    ok =
      c.Cluster.failures = []
      && d.Deploy.failures = []
      && rel_gap c.Cluster.gain check_gain <= crosscheck_tol;
    eval_path = "n/a";
    sparse_fallbacks = -1;
    iterations = c.Cluster.iterations;
  }

let sys_prepare ~q ~rate () = valid (Dpm_robust.Validate.system (paper_sys ~q ~rate))

let model_prepare build () =
  Result.is_ok (Dpm_robust.Policy_iteration.validate_model (build ()))

let sys_rung ?(reps = 1) ~label ~q ~rate ~pin () =
  let model () = Sys_model.to_ctmdp ~weight (paper_sys ~q ~rate) in
  { family = "sys"; label; prepare = sys_prepare ~q ~rate; model = Some model; reps;
    request = sys_request ~q ~rate ~pin }

let scenario_rung ?(reps = 1) ~family ~label build =
  { family; label; prepare = model_prepare build; model = Some build; reps;
    request = scenario_request build }

let fleet_rung ?(reps = 1) ~servers ~scale () =
  { family = "fleet"; label = Printf.sprintf "%d servers" servers;
    prepare = (fun () -> Spec.num_servers (fleet_spec ~servers) = servers);
    model = None; reps; request = fleet_request ~servers ~scale }

(* The rungs, requested in this order.  The seed jitters every arrival
   rate by up to 1% (the golden paper instance excepted); sizes never
   depend on it.  Each family has a small rung, where the
   overhead around evaluation shows, and a rung where evaluation
   dominates; every large rung has at least 192 states, the size from
   which the Auto evaluator tries its sweep backend. *)
let rungs ~seed =
  let rng = Dpm_prob.Rng.create (Int64.of_int (0x1adde5 + seed)) in
  let jit x = x *. (1.0 +. (0.01 *. ((2.0 *. Dpm_prob.Rng.float rng) -. 1.0))) in
  let lam = Paper_instance.arrival_rate in
  [
    sys_rung ~reps:64 ~label:"paper Q=5 (golden)" ~q:5 ~rate:lam
      ~pin:(Some golden_gain_w1) ();
    sys_rung ~label:"Q=120" ~q:120 ~rate:(jit lam) ~pin:None ();
    scenario_rung ~reps:8 ~family:"phased" ~label:"Erlang-4 Q=10"
      (phased_model ~q:10 ~rate:(jit lam));
    scenario_rung ~family:"phased" ~label:"Erlang-4 Q=40"
      (phased_model ~q:40 ~rate:(jit lam));
    scenario_rung ~reps:5 ~family:"polling" ~label:"K=2 cap 2"
      (polling_model ~capacity:2 ~rates:[ jit 0.25; jit 0.4 ]);
    scenario_rung ~family:"polling" ~label:"K=3 cap 2"
      (polling_model ~capacity:2 ~rates:[ jit 0.2; jit 0.3; jit 0.4 ]);
    scenario_rung ~reps:24 ~family:"batching" ~label:"B=4 Q=10"
      (batching_model ~q:10 ~rate:(jit lam));
    scenario_rung ~family:"batching" ~label:"B=4 Q=100"
      (batching_model ~q:100 ~rate:(jit lam));
    fleet_rung ~servers:12 ~scale:(jit (12.0 /. 120.0)) ();
    fleet_rung ~servers:72 ~scale:(jit (72.0 /. 120.0)) ();
  ]

(* --- running --------------------------------------------------------- *)

(* The program's own tallies read around every traced request. *)
let probe_names =
  [
    "policy_iteration.iterations";
    "policy_iteration.eval_time_seconds";
    "policy_iteration.eval_time_seconds#events";
    "policy_iteration.improve_time_seconds";
    "policy_iteration.sparse_evals";
    "policy_iteration.implicit_evals";
    "policy_iteration.sparse_fallbacks";
    "policy_iteration.implicit_fallbacks";
    "policy_iteration.tikhonov_rungs";
    "policy_iteration.implicit_sweeps";
    "iterative.sweeps";
    "operator.sweeps";
    "lu.factorizations";
    "robust.validate_seconds";
  ]

type sample = {
  rung : rung;
  wall : float;  (** per request: the batch's wall over [rung.reps] *)
  out : outcome;  (** the first failing request's, else the last one's *)
  failed : int;  (** requests of the batch that failed a check *)
  delta : (string * float) list;  (** traced rounds only *)
}

let failed_outcome =
  { states = 0; gain = nan; check_gain = nan; ok = false; eval_path = "raised";
    sparse_fallbacks = 0; iterations = 0 }

let request_once rung =
  quiesce ();
  let reg = Dpm_obs.Probe.current () in
  let before = Option.map (fun r -> read_all r probe_names) reg in
  let cold () =
    Dpm_cache.Solve_cache.clear ();
    try rung.request () with
    | (Out_of_memory | Stack_overflow) as e -> raise e
    | _ -> failed_outcome
  in
  let outs, wall =
    timed (fun () ->
        span "bench.request" (fun () -> List.init rung.reps (fun _ -> cold ())))
  in
  let bad = List.filter (fun o -> not o.ok) outs in
  let out = match bad with o :: _ -> o | [] -> List.hd (List.rev outs) in
  let wall = wall /. float_of_int rung.reps in
  let delta =
    match (reg, before) with
    | Some r, Some b -> diff (read_all r probe_names) b
    | _ -> []
  in
  { rung; wall; out; failed = List.length bad; delta }

let round rungs = List.map request_once rungs

let family_sums per_rung =
  List.map
    (fun f ->
      ( f,
        sum
          (List.filter_map
             (fun (r, t) -> if r.family = f then Some t else None)
             per_rung) ))
    families

let print_rungs rounds =
  let first = List.hd rounds in
  Printf.printf "%-9s %-20s %6s %5s %-9s %9s %11s  %s\n" "family" "rung"
    "states" "iters" "eval" "fallbacks" "p25 s" "ok";
  List.iteri
    (fun i s ->
      let walls = List.map (fun rd -> (List.nth rd i).wall) rounds in
      let all_ok = List.for_all (fun rd -> (List.nth rd i).out.ok) rounds in
      Printf.printf "%-9s %-20s %6d %5d %-9s %9s %11.5f  %b\n" s.rung.family
        s.rung.label s.out.states s.out.iterations s.out.eval_path
        (if s.out.sparse_fallbacks < 0 then "n/a"
         else string_of_int s.out.sparse_fallbacks)
        (lower_quartile walls) all_ok)
    first

(* Per-rung lower quartiles over the rounds, in request order. *)
let per_rung_times rounds =
  List.mapi
    (fun i s ->
      (s.rung, lower_quartile (List.map (fun rd -> (List.nth rd i).wall) rounds)))
    (List.hd rounds)

let count_outcomes rounds =
  List.fold_left
    (fun (att, failed) s -> (att + s.rung.reps, failed + s.failed))
    (0, 0) (List.concat rounds)

let prepare_all ~seed =
  let rs = rungs ~seed in
  (rs, List.for_all (fun r -> r.prepare ()) rs)


(* Family sums, the ladder total and the geometric mean over rungs. *)
let ladder_numbers rounds =
  let per_rung = per_rung_times rounds in
  let times = List.map snd per_rung in
  (family_sums per_rung, sum times, geomean times)

let detail_of rounds =
  let fam, total, gm = ladder_numbers rounds in
  [ m "ladder_s" "s" total; m "time_to_policy_s.geomean" "s" gm ]
  @ List.map (fun (f, t) -> m ("time_to_policy_s." ^ f) "s" t) fam

let run_untraced ~seed ~seconds =
  Dpm_cache.Solve_cache.set_capacity 4096;
  let ms, rounds =
    measure ~seconds ~setup:(fun () -> prepare_all ~seed) ~pass:(fun (rs, _) -> round rs)
  in
  let _, inputs_ok = ms.env in
  print_rungs rounds;
  print_pass_walls (List.map (fun rd -> sum (List.map (fun s -> s.wall) rd)) rounds);
  let _, total, gm = ladder_numbers rounds in
  let attempted, failed = count_outcomes rounds in
  let failed = if inputs_ok then failed else attempted in
  let ok_frac = float_of_int (attempted - failed) /. float_of_int attempted in
  let gated, seconds = timing_metrics ms ~work_s:total ~op_geomean_s:gm in
  {
    attempted;
    failed;
    end_to_end =
      (m "setup_s" "s" ms.setup_s :: gated)
      @ [ m "peak_heap_mb" "MB" ms.peak_mb; m "ok_frac" "ratio" ok_frac ];
    per_layer = [];
    detail =
      seconds @ detail_of rounds
      @ [ m "rounds" "count" (float_of_int (List.length rounds)) ];
  }

(* 2/3 n^3 per dense LU factorization of an n-state evaluation system,
   over the evaluation time of the same requests: a computed rate. *)
let gflops samples =
  let flops, secs =
    List.fold_left
      (fun (f, t) s ->
        let n = float_of_int s.out.states in
        ( f +. (get s.delta "lu.factorizations" *. 2.0 /. 3.0 *. n *. n *. n),
          t +. get s.delta "policy_iteration.eval_time_seconds" ))
      (0.0, 0.0) samples
  in
  if secs > 0.0 then flops /. secs /. 1e9 else 0.0

(* Rungs at or above the Auto evaluator's sweep threshold: the ones
   where evaluation is meant to dominate. *)
let large s = s.out.states >= 192

let run_traced ~seed ~seconds ~chrome =
  Dpm_cache.Solve_cache.set_capacity 4096;
  let rs, inputs_ok = prepare_all ~seed in
  let plain = repeat_for ~seconds:(seconds /. 2.0) ~min_reps:2 (fun _ -> round rs) in
  let fingerprint_s = ref 0.0 in
  let traced_rounds, _, recorder =
    traced (fun () ->
        repeat_for ~seconds:(seconds /. 2.0) ~min_reps:2 (fun _ ->
            let rd = round rs in
            (* The benchmark's own call into the cache layer: one
               structural fingerprint of each request's model, timed
               apart from the request (and from the timeline, so the
               self-time table covers the requests alone). *)
            List.iter
              (fun s ->
                Option.iter
                  (fun build ->
                    let model = build () in
                    let _, dt = timed (fun () -> Dpm_cache.Fingerprint.key model) in
                    fingerprint_s := !fingerprint_s +. (float_of_int s.rung.reps *. dt))
                  s.rung.model)
              rd;
            rd))
  in
  let events = Dpm_trace.Recorder.events recorder in
  write_chrome chrome recorder events;
  let st = self_times events in
  print_self_table ~workload:"policy-ladder" st;
  print_rungs traced_rounds;
  let rounds_f = float_of_int (List.length traced_rounds) in
  let per_round x = x /. rounds_f in
  let all = List.concat traced_rounds in
  let total ?(only = fun _ -> true) name =
    sum (List.filter_map (fun s -> if only s then Some (get s.delta name) else None) all)
  in
  let of_family f s = s.rung.family = f in
  let evals = total "policy_iteration.eval_time_seconds#events" in
  let sparse = total "policy_iteration.sparse_evals" in
  let implicit = total "policy_iteration.implicit_evals" in
  (* Layer shares of the large rungs' request wall, from the self
     times of each request's own slice of the timeline. *)
  let slices = request_slices events in
  let large_share =
    let solver = ref 0.0 and wall = ref 0.0 in
    List.iter2
      (fun s slice ->
        if large s then begin
          let t = self_times slice in
          wall := !wall +. t.root_wall;
          solver :=
            !solver +. layer_self t "ctmdp" +. layer_self t "linalg"
            +. layer_self t "ctmc"
        end)
      all slices;
    !solver /. Float.max 1e-12 !wall
  in
  let round_wall rd = sum (List.map (fun s -> s.wall) rd) in
  let overhead =
    (lower_quartile (List.map round_wall traced_rounds)
    /. lower_quartile (List.map round_wall plain))
    -. 1.0
  in
  let non_fleet s = s.rung.family <> "fleet" in
  let per_layer =
    [
      ("core.build_s", per_round (span_total st "core.build"));
      ("scenario.build_s", per_round (span_total st "scenario.build"));
      ("robust.validate_s", per_round (total "robust.validate_seconds"));
      ("cache.fingerprint_s", per_round !fingerprint_s);
      ("ctmdp.solve_s", per_round (span_total st "ctmdp.solve"));
      ("ctmdp.pi_iterations", per_round (total "policy_iteration.iterations"));
      ("ctmdp.eval_s", per_round (total "policy_iteration.eval_time_seconds"));
      ("ctmdp.improve_s", per_round (total "policy_iteration.improve_time_seconds"));
      ("ctmdp.evals.dense", per_round (evals -. sparse -. implicit));
      ("ctmdp.evals.sparse", per_round sparse);
      ("ctmdp.evals.implicit", per_round implicit);
      ("ctmdp.sparse_fallbacks", per_round (total "policy_iteration.sparse_fallbacks"));
      ("ctmdp.implicit_fallbacks", per_round (total "policy_iteration.implicit_fallbacks"));
      ("ctmdp.tikhonov_rungs", per_round (total "policy_iteration.tikhonov_rungs"));
      ("linalg.lu_factorizations", per_round (total "lu.factorizations"));
      ("linalg.lu_gflops", gflops (List.filter non_fleet all));
      ("linalg.sweeps",
        per_round
          (total "iterative.sweeps" +. total "policy_iteration.implicit_sweeps"
          +. total "operator.sweeps"));
      ("ctmc.crosscheck_s", per_round (span_total st "ctmc.crosscheck"));
      ("fleet.cluster_solve_s", per_round (span_total st "fleet.cluster_solve"));
      ("fleet.deploy_s", per_round (span_total st "fleet.deploy"));
      ("trace.large_rung_solver_frac", large_share);
      ("trace.overhead_frac", overhead);
    ]
    @ List.map
        (fun f ->
          ( "ctmdp.sparse_fallbacks." ^ f,
            per_round (total ~only:(of_family f) "policy_iteration.sparse_fallbacks") ))
        families
    @ List.filter_map
        (fun f ->
          if f = "fleet" then None
          else Some ("linalg.lu_gflops." ^ f, gflops (List.filter (of_family f) all)))
        families
  in
  let attempted, failed = count_outcomes (plain @ traced_rounds) in
  let failed = if inputs_ok then failed else attempted in
  { attempted; failed; end_to_end = []; per_layer;
    detail = detail_of plain @ [ m "rounds" "count" (float_of_int (List.length plain)) ] }
