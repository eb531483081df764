module Model = Dpm_ctmdp.Model
module Policy = Dpm_ctmdp.Policy
module Pi = Dpm_ctmdp.Policy_iteration
module Probe = Dpm_obs.Probe

type entry = { actions : int array; result : Pi.result }

let default_capacity =
  match Sys.getenv_opt "DPM_CACHE" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some c when c >= 0 -> c
      | _ -> 512)
  | None -> 512

(* Swapped atomically as a whole; Lru guards its own internals, so
   readers racing a [set_capacity] simply finish against the cache
   they loaded. *)
let cache : entry Lru.t ref = ref (Lru.create ~capacity:default_capacity)
let capacity () = Lru.capacity !cache
let set_capacity c = cache := Lru.create ~capacity:c

let with_capacity c f =
  let previous = !cache in
  cache := Lru.create ~capacity:c;
  Fun.protect ~finally:(fun () -> cache := previous) f

let clear () = Lru.clear !cache
let stats () = Lru.stats !cache

let hit_ratio () =
  let s = stats () in
  let lookups = s.Lru.hits + s.Lru.misses in
  if lookups = 0 then 0.0 else float_of_int s.Lru.hits /. float_of_int lookups

let publish c =
  let s = Lru.stats c in
  Probe.set "cache.size" (float_of_int s.Lru.size);
  let lookups = s.Lru.hits + s.Lru.misses in
  Probe.set "cache.hit_ratio"
    (if lookups = 0 then 0.0
     else float_of_int s.Lru.hits /. float_of_int lookups)

(* Lookup against an already-encoded key.  A hit rebuilds the policy
   for this model instance; a label the model does not offer means a
   fingerprint collision (or a caller bug) — treat it as a miss rather
   than serve a wrong policy. *)
let find c key m ~fingerprint =
  let hit =
    match Lru.find c key with
    | None -> None
    | Some e -> (
        match Policy.of_actions m e.actions with
        | policy ->
            Some
              {
                e.result with
                Pi.policy;
                Pi.bias = Dpm_linalg.Vec.copy e.result.Pi.bias;
              }
        | exception Invalid_argument _ -> None)
  in
  Probe.incr (if hit = None then "cache.misses" else "cache.hits");
  if Dpm_trace.Recorder.enabled () then
    Dpm_trace.Recorder.instant
      (if hit = None then "cache.miss" else "cache.hit")
      ~args:
        [
          ( "fingerprint",
            Dpm_trace.Event.Str (Printf.sprintf "%016Lx" fingerprint) );
        ];
  publish c;
  hit

let store c key m (result : Pi.result) =
  let entry =
    {
      actions = Policy.actions m result.Pi.policy;
      result = { result with Pi.bias = Dpm_linalg.Vec.copy result.Pi.bias };
    }
  in
  if Lru.add c key entry then Probe.incr "cache.evictions";
  publish c

let solve m ~miss =
  let t0 = Probe.now () in
  let c = !cache in
  let key = Fingerprint.key m in
  let fingerprint = Fingerprint.key_hash key in
  let stamp ~origin (r : Pi.result) =
    {
      r with
      Pi.provenance =
        {
          r.Pi.provenance with
          Dpm_trace.Provenance.fingerprint;
          origin;
          wall_s = Probe.now () -. t0;
        };
    }
  in
  let enabled = Lru.capacity c > 0 in
  match if enabled then find c key m ~fingerprint else None with
  | Some r -> Ok (stamp ~origin:Dpm_trace.Provenance.Cache_hit r)
  | None -> (
      match miss () with
      | Error _ as e -> e
      | Ok r ->
          if enabled then store c key m r;
          Ok (stamp ~origin:r.Pi.provenance.Dpm_trace.Provenance.origin r))
