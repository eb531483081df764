(* online: a closed-loop replay like `dpm_cli serve < trace`.  One
   Dpm_serve.Engine serves the paper SP at queue capacity 64 (259
   states).  A seeded arrival stream drifts over 8 rate levels, twice
   round, so the second cycle finds its re-solve targets in the solve
   cache.  Every pump of 64 arrivals is followed by 64 decide queries
   on random states, and the engine checkpoints to a scratch directory
   every 4096 arrivals.  The solve layers see many warm-started small
   re-solves and cache hits here, not cold large solves. *)

open Dpm_core
open Common
module Engine = Dpm_serve.Engine
module Provenance = Dpm_trace.Provenance

let weight = 1.0
let queue_capacity = 64
let levels = [| 0.10; 0.13; 0.17; 0.22; 0.29; 0.38; 0.26; 0.15 |]
let cycles = 2
let per_segment = 3_200
let batch = 64
let checkpoint_every = 4096

type env = {
  sys : Sys_model.t;
  arrivals : float array;  (** absolute arrival times *)
  queries : int array;  (** state index per decide query *)
  states : Sys_model.state array;
  valid : bool array array;  (** [valid.(state).(label)] *)
  dir : string;  (** checkpoint directory *)
}

let segments = cycles * Array.length levels

let make_env ~seed ~dir =
  let rng = Dpm_prob.Rng.create (Int64.of_int (0x5e7e + seed)) in
  let sys =
    Sys_model.create
      ~sp:(Paper_instance.service_provider ())
      ~queue_capacity ~arrival_rate:Paper_instance.arrival_rate ()
  in
  let n = segments * per_segment in
  let arrivals = Array.make n 0.0 in
  let t = ref 0.0 in
  for i = 0 to n - 1 do
    let rate = levels.(i / per_segment mod Array.length levels) in
    t := !t -. (log (Dpm_prob.Rng.float_positive rng) /. rate);
    arrivals.(i) <- !t
  done;
  let states = Sys_model.states sys in
  let ns = Array.length states in
  let queries = Array.init n (fun _ -> Dpm_prob.Rng.int rng ns) in
  let labels = Service_provider.num_modes (Sys_model.sp sys) in
  let valid =
    Array.map
      (fun st ->
        let ok = Array.make labels false in
        List.iter (fun a -> ok.(a) <- true) (Sys_model.valid_actions sys st);
        ok)
      states
  in
  { sys; arrivals; queries; states; valid; dir }

let checkpoint_path env = Filename.concat env.dir "engine.ckpt"

(* A fresh engine on an empty solve cache: every pass starts from the
   same state, so its counts repeat exactly for a fixed seed.  Startup
   is a cold solve at the nominal rate. *)
let fresh_engine env =
  Dpm_cache.Solve_cache.clear ();
  let path = checkpoint_path env in
  if Sys.file_exists path then Sys.remove path;
  Engine.create ~weight ~checkpoint_path:path ~checkpoint_every:max_int env.sys

(* Set-up: the seeded streams and an engine start (a cold solve). *)
let setup ~seed ~dir =
  let env = make_env ~seed ~dir in
  ignore (fresh_engine env);
  env

(* What a replay keeps: timings, counts and the outcome of its checks.
   The answers are checked as soon as the timed loop ends and then
   dropped, so the heap does not grow with the number of passes. *)
type pass = {
  wall : float;
  segment_walls : float array;
  stalls_hit : float list;
  stalls_miss : float list;
  arrivals : int;
  stats : Engine.stats;
  cache : Dpm_cache.Lru.stats;
  checked : int;  (** one per answered query, one for the engine *)
  failed : int;
}

(* One replay; also returns the (rate, actions) pair each re-solve
   deployed.  Checks: every answer is a valid label of its state, and
   the engine stays healthy, checkpoints without error and never fails
   a re-solve. *)
let replay (env : env) eng =
  let n = Array.length env.arrivals in
  let answers = Array.make n (-1) in
  let segment_walls = Array.make segments 0.0 in
  let hit = ref [] and miss = ref [] and deployed = ref [] in
  let healthy = ref true and checkpoints_ok = ref true in
  quiesce ();
  let cache0 = Dpm_cache.Solve_cache.stats () in
  let t0 = now () in
  let seg_t0 = ref t0 in
  let i = ref 0 in
  while !i < n do
    let lo = !i and hi = min n (!i + batch) in
    span "serve.ingest" (fun () ->
        for j = lo to hi - 1 do
          ignore (Engine.offer_arrival eng ~at:env.arrivals.(j))
        done);
    let r0 = (Engine.stats eng).Engine.resolves in
    let p0 = now () in
    span "serve.pump" (fun () -> Engine.pump eng);
    let stall = now () -. p0 in
    if (Engine.stats eng).Engine.resolves > r0 then begin
      (match Engine.last_provenance eng with
      | Some p when p.Provenance.origin = Provenance.Cache_hit -> hit := stall :: !hit
      | Some _ | None -> miss := stall :: !miss);
      deployed := (Engine.deployed_rate eng, Engine.deployed_actions eng) :: !deployed
    end;
    if Engine.health eng <> Dpm_serve.Health.Healthy then healthy := false;
    span "serve.decide" (fun () ->
        for j = lo to hi - 1 do
          answers.(j) <- Engine.decide eng env.states.(env.queries.(j))
        done);
    if hi mod checkpoint_every = 0 then
      span "serve.checkpoint" (fun () ->
          if Result.is_error (Engine.checkpoint eng) then checkpoints_ok := false);
    if hi mod per_segment = 0 then begin
      let t = now () in
      segment_walls.((hi / per_segment) - 1) <- t -. !seg_t0;
      seg_t0 := t
    end;
    i := hi
  done;
  let wall = now () -. t0 in
  let cache1 = Dpm_cache.Solve_cache.stats () in
  let stats = Engine.stats eng in
  let bad = ref 0 in
  Array.iteri
    (fun j a ->
      let v = env.valid.(env.queries.(j)) in
      if a < 0 || a >= Array.length v || not v.(a) then incr bad)
    answers;
  let engine_ok = !healthy && !checkpoints_ok && stats.Engine.resolve_failures = 0 in
  ( {
      wall;
      segment_walls;
      stalls_hit = !hit;
      stalls_miss = !miss;
      arrivals = n;
      stats;
      cache =
        {
          cache1 with
          Dpm_cache.Lru.hits = cache1.Dpm_cache.Lru.hits - cache0.Dpm_cache.Lru.hits;
          misses = cache1.Dpm_cache.Lru.misses - cache0.Dpm_cache.Lru.misses;
        };
      checked = n + 1;
      failed = (!bad + if engine_ok then 0 else 1);
    },
    List.rev !deployed )

let one_pass env = fst (replay env (fresh_engine env))

let count passes =
  List.fold_left (fun (att, failed) p -> (att + p.checked, failed + p.failed)) (0, 0) passes

let events p = 2 * p.arrivals

let print_passes passes =
  let p = List.hd passes in
  let s = p.stats in
  Printf.printf
    "online: %d arrivals + %d queries; resolves %d (switches %d, failures %d), \
     drops %d, checkpoints %d; cache hits %d misses %d; stalls hit %d miss %d\n"
    p.arrivals p.arrivals s.Engine.resolves
    s.Engine.policy_switches s.Engine.resolve_failures s.Engine.queue_drops
    s.Engine.checkpoints p.cache.Dpm_cache.Lru.hits p.cache.Dpm_cache.Lru.misses
    (List.length p.stalls_hit) (List.length p.stalls_miss);
  print_pass_walls (List.map (fun p -> p.wall) passes)

(* Lower quartile of each rate level's replay time over the passes. *)
let segment_times passes =
  List.init segments (fun s ->
      lower_quartile (List.map (fun p -> p.segment_walls.(s)) passes))

let detail_of passes =
  [
    m "online_events_per_s" "1/s"
      (float_of_int (events (List.hd passes)) /. sum (segment_times passes));
    m "resolve_stall_s.hit.p50" "s" (median (List.concat_map (fun p -> p.stalls_hit) passes));
    m "resolve_stall_s.miss.p50" "s" (median (List.concat_map (fun p -> p.stalls_miss) passes));
    m "passes" "count" (float_of_int (List.length passes));
  ]

let with_dir ~dir f =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fun.protect f ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)

let run_untraced ~seed ~seconds ~dir =
  with_dir ~dir @@ fun () ->
  Dpm_cache.Solve_cache.set_capacity 512;
  let ms, passes = measure ~seconds ~setup:(fun () -> setup ~seed ~dir) ~pass:one_pass in
  print_passes passes;
  let attempted, failed = count passes in
  let seg_times = segment_times passes in
  let gated, seconds =
    timing_metrics ms ~work_s:(sum seg_times) ~op_geomean_s:(geomean seg_times)
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

let probe_names = [ "policy_iteration.iterations"; "cache.warm_starts" ]

let run_traced ~seed ~seconds ~dir ~chrome =
  with_dir ~dir @@ fun () ->
  Dpm_cache.Solve_cache.set_capacity 512;
  let env = setup ~seed ~dir in
  let plain = repeat_for ~seconds:(seconds /. 2.0) ~min_reps:2 (fun _ -> one_pass env) in
  let traced_passes, _, recorder =
    traced (fun () ->
        let reg = Option.get (Dpm_obs.Probe.current ()) in
        repeat_for ~seconds:(seconds /. 2.0) ~min_reps:2 (fun _ ->
            let eng = fresh_engine env in
            let before = read_all reg probe_names in
            let p, deployed = span "bench.replay" (fun () -> replay env eng) in
            let delta = diff (read_all reg probe_names) before in
            (* The benchmark's own call into core: the analytic
               metrics of every deployed (rate, actions) pair, which a
               cache hit recomputes inside Optimize.solve.  Timed
               apart from the replay and its timeline. *)
            let analytic_s =
              sum
                (List.map
                   (fun (rate, actions) ->
                     let sys = Sys_model.with_arrival_rate env.sys rate in
                     snd (timed (fun () -> Analytic.of_action_array sys actions)))
                   deployed)
            in
            (p, ("core.analytic_s", analytic_s) :: delta)))
  in
  let events_list = Dpm_trace.Recorder.events recorder in
  write_chrome chrome recorder events_list;
  let st = self_times events_list in
  print_self_table ~workload:"online" st;
  let passes = List.map fst traced_passes in
  print_passes passes;
  let k = float_of_int (List.length passes) in
  let per_pass x = x /. k in
  let total f = sum (List.map f passes) in
  let arrivals = total (fun p -> float_of_int p.arrivals) in
  let stat f = per_pass (total (fun p -> float_of_int (f p.stats))) in
  let delta name = per_pass (sum (List.map (fun (_, d) -> get d name) traced_passes)) in
  let per_layer =
    [
      ("serve.ingest_ns", 1e9 *. span_total st "serve.ingest" /. arrivals);
      ("serve.decide_ns", 1e9 *. span_total st "serve.decide" /. arrivals);
      ("serve.pump_s", per_pass (span_total st "serve.pump"));
      ("serve.checkpoint_s", per_pass (span_total st "serve.checkpoint"));
      ("serve.checkpoints", stat (fun s -> s.Engine.checkpoints));
      ("serve.resolves", stat (fun s -> s.Engine.resolves));
      ("serve.policy_switches", stat (fun s -> s.Engine.policy_switches));
      ("serve.resolve_failures", stat (fun s -> s.Engine.resolve_failures));
      ("serve.queue_drops", stat (fun s -> s.Engine.queue_drops));
      ("cache.hits", per_pass (total (fun p -> float_of_int p.cache.Dpm_cache.Lru.hits)));
      ("cache.misses", per_pass (total (fun p -> float_of_int p.cache.Dpm_cache.Lru.misses)));
      ("cache.warm_starts", delta "cache.warm_starts");
      ("core.analytic_s", delta "core.analytic_s");
      ("ctmdp.pi_iterations.warm", delta "policy_iteration.iterations");
      ( "trace.overhead_frac",
        (lower_quartile (List.map (fun p -> p.wall) passes)
        /. lower_quartile (List.map (fun p -> p.wall) plain))
        -. 1.0 );
    ]
  in
  let attempted, failed = count (plain @ passes) in
  { attempted; failed; end_to_end = []; per_layer; detail = detail_of plain }
