(* The repository benchmark.  Usage (normally through run.py, which
   builds this executable and pins the environment):

     main.exe --workload policy-ladder|simulate|online --seed N
              --seconds S --trace 0|1 [--out DIR]

   --trace 0 measures the end-to-end metrics with every sink off;
   --trace 1 runs half the time untraced and half with a Dpm_obs
   registry and a timeline recorder installed, prints the per-layer
   self-time table, writes a Chrome trace to DIR and reports the
   per-layer metrics.  The last line of standard output is one JSON
   object: correct, attempted, failed, metrics. *)

open Common

(* Every per-layer metric, on every workload: a layer the workload
   does not exercise reads 0. *)
let per_layer_units =
  [
    ("core.build_s", "s");
    ("scenario.build_s", "s");
    ("robust.validate_s", "s");
    ("cache.fingerprint_s", "s");
    ("ctmdp.solve_s", "s");
    ("ctmdp.pi_iterations", "count");
    ("ctmdp.eval_s", "s");
    ("ctmdp.improve_s", "s");
    ("ctmdp.evals.dense", "count");
    ("ctmdp.evals.sparse", "count");
    ("ctmdp.evals.implicit", "count");
    ("ctmdp.sparse_fallbacks", "count");
    ("ctmdp.implicit_fallbacks", "count");
    ("ctmdp.tikhonov_rungs", "count");
    ("linalg.lu_factorizations", "count");
    ("linalg.lu_gflops", "GFLOP/s");
    ("linalg.sweeps", "count");
    ("ctmc.crosscheck_s", "s");
    ("fleet.cluster_solve_s", "s");
    ("fleet.deploy_s", "s");
    ("trace.large_rung_solver_frac", "ratio");
  ]
  @ List.map (fun f -> ("ctmdp.sparse_fallbacks." ^ f, "count")) Ladder.families
  @ List.filter_map
      (fun f -> if f = "fleet" then None else Some ("linalg.lu_gflops." ^ f, "GFLOP/s"))
      Ladder.families
  @ [
      ("sim.run_s.poisson", "s");
      ("sim.run_s.mmpp", "s");
      ("sim.events", "count");
      ("sim.decisions", "count");
      ("fleet.sim_s", "s");
      ("fleet.events", "count");
      ("fleet.deploy_hit_ratio", "ratio");
      ("trace.simulate_sim_frac", "ratio");
      ("serve.ingest_ns", "ns");
      ("serve.decide_ns", "ns");
      ("serve.pump_s", "s");
      ("serve.checkpoint_s", "s");
      ("serve.checkpoints", "count");
      ("serve.resolves", "count");
      ("serve.policy_switches", "count");
      ("serve.resolve_failures", "count");
      ("serve.queue_drops", "count");
      ("cache.hits", "count");
      ("cache.misses", "count");
      ("cache.warm_starts", "count");
      ("core.analytic_s", "s");
      ("ctmdp.pi_iterations.warm", "count");
      ("trace.overhead_frac", "ratio");
    ]

let workloads = [ "policy-ladder"; "simulate"; "online" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload policy-ladder|simulate|online --seed N \
     --seconds S --trace 0|1 [--out DIR]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and out = ref ".perfbench_out" in
  let rec go = function
    | "--workload" :: w :: rest when List.mem w workloads ->
        workload := Some w;
        go rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None ->
        seed := int_of_string_opt s;
        go rest
    | "--seconds" :: s :: rest
      when match float_of_string_opt s with Some x -> x > 0.0 | None -> false ->
        seconds := float_of_string_opt s;
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := Some (t = "1");
        go rest
    | "--out" :: d :: rest ->
        out := d;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t -> (w, s, sec, t, !out)
  | _ -> usage ()

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.trim (String.sub line 0 i) = "model name" ->
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
            | _ -> scan ())
      in
      let model = scan () in
      close_in ic;
      model

(* Noise hygiene: one domain, no injected faults.  A run that cannot
   hold these is refused rather than measured. *)
let check_environment () =
  if Sys.getenv_opt "DPM_FAULTS" <> None then (
    prerr_endline "perfbench: DPM_FAULTS is set; refusing to measure injected faults";
    exit 2);
  if Dpm_par.default_domains () <> 1 then (
    prerr_endline "perfbench: DPM_DOMAINS must be 1";
    exit 2)

let print_meta ~workload ~seed ~seconds ~trace =
  print_endline
    ("meta "
    ^ Json.to_string
        (Json.Obj
           [
             ( "git_sha",
               Json.Str
                 (Option.value (Sys.getenv_opt "PERFBENCH_GIT_SHA") ~default:"unknown") );
             ("cpu_model", Json.Str (cpu_model ()));
             ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
             ("ocaml", Json.Str Sys.ocaml_version);
             ("domains", Json.Num (float_of_int (Dpm_par.default_domains ())));
             ("workload", Json.Str workload);
             ("seed", Json.Num (float_of_int seed));
             ("seconds", Json.Num seconds);
             ("trace", Json.Bool trace);
           ]))

let () =
  let workload, seed, seconds, trace, out = parse Sys.argv in
  check_environment ();
  print_meta ~workload ~seed ~seconds ~trace;
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let chrome = Filename.concat out (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let scratch = Filename.concat out (Printf.sprintf "online-%d" (Unix.getpid ())) in
  let r =
    match (workload, trace) with
    | "policy-ladder", false -> Ladder.run_untraced ~seed ~seconds
    | "policy-ladder", true -> Ladder.run_traced ~seed ~seconds ~chrome
    | "simulate", false -> Simulate.run_untraced ~seed ~seconds
    | "simulate", true -> Simulate.run_traced ~seed ~seconds ~chrome
    | "online", false -> Online.run_untraced ~seed ~seconds ~dir:scratch
    | _ -> Online.run_traced ~seed ~seconds ~dir:scratch ~chrome
  in
  print_metric_table ("detail, " ^ workload) r.detail;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer_units) then
        failwith ("unlisted per-layer metric " ^ name))
    r.per_layer;
  let metrics =
    if trace then
      List.map (fun (name, u) -> m name u (get r.per_layer name)) per_layer_units
    else r.end_to_end
  in
  print_metric_table (if trace then "per-layer" else "end-to-end") metrics;
  print_result ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed metrics
