(** Solve provenance: where a solution came from and what it cost.

    Every solver result ([Policy_iteration], [Value_iteration],
    [Lp_solver], and [Optimize.solution] above them) carries one of
    these records, answering after the fact: which method and
    evaluation path ran, how many iterations, what residual it ended
    on, whether it was a cache hit / warm start / cold solve, how many
    robustness retries and injected faults it absorbed, and how much
    wall clock it spent against what deadline.

    Solvers do not thread a provenance value through their internals.
    Instead they wrap the solve in {!collect}, and the interesting
    sites ([Dpm_robust] retries, Tikhonov rungs, sparse fallbacks,
    simplex pivots, fault injection) call the [note_*] helpers, which
    tally into a domain-local collector — a no-op (one DLS read, no
    allocation) when no collection is in progress, so the notes are
    unconditional like [Dpm_obs.Probe] ticks. *)

(** How the solution was obtained: from scratch, warm-started from a
    prior policy/values, or returned by the structural solve cache. *)
type origin = Cold | Warm | Cache_hit

(** Tallies gathered while a solve runs (see {!collect}). *)
type counts = {
  mutable robust_retries : int;
  mutable tikhonov_rungs : int;
  mutable sparse_fallbacks : int;
  mutable faults_injected : int;
  mutable pivots : int;
  mutable residual : float;  (** last noted; nan until noted *)
  mutable eval_path : string option;  (** last noted *)
}

(** The provenance record.  [fingerprint] is the structural model hash
    ([Dpm_cache.Fingerprint.model_hash]); [0L] when the solver ran
    below the cache layer and nobody filled it in.  [residual],
    [weight] and [arrival_rate] use nan for "not applicable";
    [deadline_s] is the guard budget the caller ran under. *)
type t = {
  fingerprint : int64;
  method_ : string;
  eval_path : string;
  iterations : int;
  residual : float;
  origin : origin;
  robust_retries : int;
  tikhonov_rungs : int;
  sparse_fallbacks : int;
  faults_injected : int;
  deadline_s : float option;
  wall_s : float;
  weight : float;
  arrival_rate : float;
}

val collect : (unit -> 'a) -> 'a * counts
(** Run a solve under a fresh collector; returns the result with the
    tallies.  Nested collections are independent: the inner solve's
    notes land in the inner counts only, and the outer collector is
    restored afterwards (also on exceptions). *)

val note_robust_retry : unit -> unit
(** Tick the active collector's retry count (no-op without one). *)

val note_tikhonov_rung : unit -> unit
(** Tick the Tikhonov-regularization rung count. *)

val note_sparse_fallback : unit -> unit
(** Tick the count of policy evaluations the sweeps handed to dense LU
    (the field keeps its historical name). *)

val note_fault : unit -> unit
(** Tick the injected-fault count (called by [Dpm_robust.Fault]). *)

val note_pivot : unit -> unit
(** Tick the simplex pivot count (called by [Dpm_linalg.Simplex]). *)

val note_residual : float -> unit
(** Record the most recent convergence residual. *)

val note_eval_path : string -> unit
(** Record which evaluation path ran (e.g. ["dense"], ["implicit"]). *)

val of_counts :
  method_:string ->
  iterations:int ->
  origin:origin ->
  wall_s:float ->
  ?eval_path:string ->
  ?residual:float ->
  ?deadline_s:float ->
  counts ->
  t
(** Build a record from collected tallies.  [eval_path]/[residual]
    default to the noted values; [fingerprint], [weight] and
    [arrival_rate] start unknown for upper layers to fill in. *)

val origin_to_string : origin -> string
(** ["cold"], ["warm"], or ["cache_hit"]. *)

val fingerprint_hex : t -> string
(** The 16-digit lowercase hex of [fingerprint]. *)

val to_json : t -> string
(** One-line JSON object (fingerprint as a hex string; nan fields as
    [null]). *)

val of_json : string -> (t, string) result
(** Parse {!to_json} output back; unknown optional fields default. *)

val to_args : t -> (string * Event.arg) list
(** The record as typed trace-event arguments, for attaching to
    timeline instants. *)

val pp : Format.formatter -> t -> unit
(** Compact human-readable one-liner. *)
