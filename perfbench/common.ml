(* Shared machinery of the benchmark: clocks and order statistics,
   benchmark-owned spans around calls into the libraries, reads of the
   program's existing Dpm_obs registry, the per-layer self-time table,
   and the JSON result line.

   Nothing here reaches inside lib/: a span is opened by the benchmark
   around its own call into a layer's public function, and the only
   library-side timings merged in are the ones the program already
   records (Dpm_obs timers and counters, the "policy_iteration" span,
   solve provenance). *)

module Json = Dpm_trace.Json
module Metrics = Dpm_obs.Metrics

let now = Unix.gettimeofday

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* The lower quartile (linear interpolation between order statistics).
   The end-to-end times are lower quartiles of many short samples: on a
   shared host whose speed drifts between states about 1.5x apart, the
   lower quartile of a run's samples tracks the machine's faster state,
   where a median lands wherever the mix of states put it (see
   README.md). *)
let lower_quartile xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let pos = 0.25 *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 < Array.length a then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs
let rel_gap a b = Float.abs (a -. b) /. Float.max 1e-300 (Float.abs b)

(* The timed phases compare passes with each other, so each starts
   from a compacted heap rather than whatever the previous pass left. *)
let quiesce () = Gc.compact ()

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Repeat [f] (at least [min_reps] times) until [seconds] of wall time
   have passed since the first call; return every result in order.
   There is no deadline inside [f]: a slow pass only means fewer
   passes, never a failure. *)
let repeat_for ~seconds ~min_reps f =
  let t0 = now () in
  let rec go k acc =
    if k >= min_reps && now () -. t0 >= seconds then List.rev acc
    else go (k + 1) (f k :: acc)
  in
  go 0 []

(* --- spans ----------------------------------------------------------- *)

(* A benchmark-owned span around a call into one layer.  The name is
   "<layer>.<what>"; with no recorder installed (the untraced runs)
   this is exactly [f ()]. *)
let span name f =
  if not (Dpm_trace.Recorder.enabled ()) then f ()
  else begin
    Dpm_trace.Recorder.begin_ name;
    Fun.protect ~finally:(fun () -> Dpm_trace.Recorder.end_ name) f
  end

(* The layer a span belongs to.  Benchmark spans carry it as their
   prefix; the program's own spans are named after their solver. *)
let layer_of name =
  match name with
  | "policy_iteration" | "value_iteration" -> "ctmdp"
  | _ -> (
      match String.index_opt name '.' with
      | Some i -> String.sub name 0 i
      | None -> name)

type self_times = {
  by_span : (string, float * float) Hashtbl.t;  (** name -> total, self *)
  by_layer : (string, float) Hashtbl.t;  (** layer -> self *)
  root_wall : float;  (** summed duration of outermost spans *)
}

(* Self time of a span = its duration minus the part covered by its
   child spans.  Events come from one domain, in timestamp order. *)
let self_times events =
  let by_span = Hashtbl.create 32 and by_layer = Hashtbl.create 16 in
  let add tbl k v =
    Hashtbl.replace tbl k
      (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
  in
  let root = ref 0.0 in
  let stack = ref [] in
  List.iter
    (fun (e : Dpm_trace.Event.t) ->
      match e.phase with
      | Dpm_trace.Event.Begin -> stack := (e.name, e.ts, ref 0.0) :: !stack
      | Dpm_trace.Event.End -> (
          match !stack with
          | (name, t0, children) :: rest ->
              let dur = e.ts -. t0 in
              let self = dur -. !children in
              let total, s =
                Option.value (Hashtbl.find_opt by_span name) ~default:(0.0, 0.0)
              in
              Hashtbl.replace by_span name (total +. dur, s +. self);
              add by_layer (layer_of name) self;
              (match rest with
              | (_, _, parent) :: _ -> parent := !parent +. dur
              | [] -> root := !root +. dur);
              stack := rest
          | [] -> ())
      | Dpm_trace.Event.Instant -> ())
    events;
  { by_span; by_layer; root_wall = !root }

let layer_self st layer =
  Option.value (Hashtbl.find_opt st.by_layer layer) ~default:0.0

let span_total st name =
  match Hashtbl.find_opt st.by_span name with Some (t, _) -> t | None -> 0.0

let print_self_table ~workload st =
  Printf.printf "per-layer self time, %s (traced pass; share of %.3f s)\n"
    workload st.root_wall;
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.by_layer []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  List.iter
    (fun (layer, s) ->
      Printf.printf "  %-10s %10.4f s  %6.2f%%\n" layer s
        (100.0 *. s /. Float.max 1e-12 st.root_wall))
    rows;
  let spans =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.by_span []
    |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)
  in
  Printf.printf "  %-28s %10s %10s\n" "span" "total s" "self s";
  List.iter
    (fun (name, (total, self)) ->
      Printf.printf "  %-28s %10.4f %10.4f\n" name total self)
    spans

(* The events of each outermost "bench.request" span, in order: one
   slice of the timeline per request. *)
let request_slices events =
  let slices = ref [] and cur = ref [] and depth = ref 0 in
  List.iter
    (fun (e : Dpm_trace.Event.t) ->
      match e.phase with
      | Dpm_trace.Event.Begin ->
          if !depth = 0 && e.name = "bench.request" then (cur := [ e ]; depth := 1)
          else if !depth > 0 then (cur := e :: !cur; incr depth)
      | Dpm_trace.Event.End ->
          if !depth > 0 then begin
            cur := e :: !cur;
            decr depth;
            if !depth = 0 then slices := List.rev !cur :: !slices
          end
      | Dpm_trace.Event.Instant -> ())
    events;
  List.rev !slices

let write_chrome path recorder events =
  let oc = open_out path in
  output_string oc
    (Dpm_trace.Chrome.render ~epoch:(Dpm_trace.Recorder.epoch recorder) events);
  close_out oc;
  Printf.printf "chrome trace: %s (%d events)\n" path (List.length events)

(* --- the program's own counters and timers --------------------------- *)

let timer_events reg name =
  match Metrics.find reg name with
  | Some (Metrics.Timer_value { events; _ }) -> events
  | _ -> 0

(* One number per name: a counter's count, a timer's seconds, a
   gauge's value; "<timer>#events" reads a timer's event count. *)
let read reg name =
  match String.index_opt name '#' with
  | Some i -> float_of_int (timer_events reg (String.sub name 0 i))
  | None -> (
      match Metrics.find reg name with
      | Some (Metrics.Counter_value n) -> float_of_int n
      | Some (Metrics.Timer_value { seconds; _ }) -> seconds
      | Some (Metrics.Gauge_value g) -> g
      | Some (Metrics.Histogram_value _) | None -> 0.0)

let read_all reg names = List.map (fun n -> (n, read reg n)) names

let diff after before =
  List.map2 (fun (n, a) (_, b) -> (n, a -. b)) after before

let get kvs name = Option.value (List.assoc_opt name kvs) ~default:0.0

(* Run [f] traced: a fresh Dpm_obs registry and a fresh timeline
   recorder are installed for its duration. *)
let traced f =
  let reg = Metrics.create () in
  let recorder = Dpm_trace.Recorder.create ~capacity:(1 lsl 20) () in
  let v =
    Dpm_obs.Probe.with_active reg (fun () ->
        Dpm_trace.Recorder.with_recorder recorder f)
  in
  if Dpm_trace.Recorder.dropped recorder > 0 then
    failwith "trace ring overflowed: self times would be wrong";
  (v, reg, recorder)

(* --- output ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

(* What one workload run measured.  [end_to_end] comes from untraced
   runs; [per_layer] from traced ones, by name (unexercised layers are
   filled with 0 by the caller); [detail] is printed, not gated. *)
type report = {
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : (string * float) list;
  detail : metric list;
}

let m name unit_ value = { name; value; unit_ }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun { name; value; unit_ } ->
         (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ]))
       ms)

let print_metric_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun { name; value; unit_ } ->
      Printf.printf "  %-34s %18.6g %s\n" name value unit_)
    ms

(* The last line of standard output: the result object. *)
let print_result ~correct ~attempted ~failed ms =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", metrics_json ms);
          ]))

(* Every pass's wall time, so the run-to-run noise is visible. *)
let print_pass_walls walls =
  Printf.printf "pass walls (s), lower quartile %.4f: %s\n" (lower_quartile walls)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls))

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* --- the machine-speed reference -------------------------------------- *)

(* A fixed calibration kernel built from the OCaml standard library
   alone, so no change to the program can move it: dense elimination
   on a float matrix, an allocating sort of boxed pairs, and
   cache-missing reads over a 16 MB array kept outside the OCaml heap.
   Its time tracks how fast the host runs right now. *)
let reference_table =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
     Bigarray.Array1.fill a 1;
     a)

let reference_kernel () =
  let n = 160 in
  let a =
    Array.init (n * n) (fun k ->
        let i = k / n and j = k mod n in
        if i = j then float_of_int n else 1.0 /. float_of_int (1 + (((7 * i) + (3 * j)) mod 11)))
  in
  for k = 0 to n - 1 do
    for i = k + 1 to n - 1 do
      let f = a.((i * n) + k) /. a.((k * n) + k) in
      for j = k + 1 to n - 1 do
        a.((i * n) + j) <- a.((i * n) + j) -. (f *. a.((k * n) + j))
      done
    done
  done;
  let st = Random.State.make [| 42 |] in
  let sorted =
    List.sort compare (List.init 20_000 (fun i -> (Random.State.float st 1.0, i)))
  in
  let table = Lazy.force reference_table in
  let mask = Bigarray.Array1.dim table - 1 in
  let x = ref 12345 and acc = ref 0 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + Bigarray.Array1.unsafe_get table (!x land mask)
  done;
  ignore (Sys.opaque_identity (a, sorted, !acc))

let setup_samples = 9

(* Reference timings before each pass: enough that even the longest
   pass (the online replay, about 3 s) leaves a few dozen per run. *)
let reference_reps = 3

type 'a measured = {
  env : 'a;  (** the first set-up's result, which every pass uses *)
  setup_s : float;  (** median over [setup_samples] set-ups *)
  peak_mb : float;  (** major-heap high-water mark after the first pass *)
  reference_s : float;
      (** lower quartile of the reference kernel, timed
          [reference_reps] times before each pass *)
}

(* The untraced measurement loop.  [setup] runs once before the first
   pass and again after each of the next passes until it has
   [setup_samples] timings, so that they spread over the run rather
   than one instant of it.  [pass] repeats until [seconds] have passed,
   at least three times, each time right after [reference_reps]
   timings of the reference kernel.  The heap high-water mark is read right after the
   first pass: that pass's allocations are fixed by the seed, while how
   many passes follow depends on the machine's speed. *)
let measure ~seconds ~setup ~pass =
  let env, t0 = timed setup in
  let setups = ref [ t0 ] and refs = ref [] and peak = ref nan in
  let passes =
    repeat_for ~seconds ~min_reps:3 (fun k ->
        for _ = 1 to reference_reps do
          refs := snd (timed reference_kernel) :: !refs
        done;
        let p = pass env in
        if k = 0 then peak := peak_heap_mb ();
        if List.length !setups < setup_samples then
          setups := snd (timed setup) :: !setups;
        p)
  in
  ( {
      env;
      setup_s = median !setups;
      peak_mb = !peak;
      reference_s = lower_quartile !refs;
    },
    passes )

(* The gated times: the workload's operation times (lower quartiles)
   in units of the reference kernel's time in the same run, so that a
   host running slower or faster for minutes moves both alike; the
   seconds themselves go to the detail table. *)
let timing_metrics ms ~work_s ~op_geomean_s =
  ( [
      m "work_rel" "x" (work_s /. ms.reference_s);
      m "op_geomean_rel" "x" (op_geomean_s /. ms.reference_s);
    ],
    [
      m "work_s" "s" work_s;
      m "op_geomean_ms" "ms" (1000.0 *. op_geomean_s);
      m "reference_ms" "ms" (1000.0 *. ms.reference_s);
    ] )
