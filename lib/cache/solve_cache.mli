(** The process-wide policy-iteration result cache.

    Memoizes policy-iteration results keyed on the {!Fingerprint} of
    the model.  Entries
    store action {e labels}, not a [Policy.t]: a policy's internal
    choice indices are only meaningful for the exact model instance
    that produced it, so a hit rebuilds the policy against the
    requesting model through [Policy.of_actions] — valid for any
    structurally equal model whatever its choice-list ordering.

    The cache is a single mutex-guarded {!Lru} shared by every
    {!Dpm_par} domain.  Capacity resolves from the [DPM_CACHE]
    environment variable (a nonnegative integer) or defaults to 512;
    the CLI's [--cache] flag lands on {!set_capacity}.  Capacity 0
    disables the cache entirely: {!solve} skips the lookup and the
    store and touches no counters, so benchmarks can measure cold
    solves.

    {!Dpm_obs} instrumentation: counters [cache.hits],
    [cache.misses], [cache.evictions]; gauges [cache.size],
    [cache.hit_ratio].  With a {!Dpm_trace.Recorder} active each
    lookup also emits a [cache.hit] / [cache.miss] instant carrying
    the same fingerprint as the provenance record. *)

val default_capacity : int
(** [DPM_CACHE] if set to a nonnegative integer, else 512. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Replace the cache with a fresh one of the given capacity (raises
    [Invalid_argument] when negative).  Dropping to the same capacity
    still clears the contents. *)

val with_capacity : int -> (unit -> 'a) -> 'a
(** [with_capacity c f] runs [f] against a fresh cache of capacity
    [c], then restores the previous cache (contents included) even on
    exceptions.  The swap is process-wide, not scoped per domain — use
    it from the orchestrating domain around a whole parallel region
    (benchmarks use [with_capacity 0] to time cold solves). *)

val clear : unit -> unit
(** Drop every cached result and reset the counters ({!Lru.clear}). *)

val stats : unit -> Lru.stats
(** Hit/miss/eviction counters of the process-wide cache. *)

val hit_ratio : unit -> float
(** [hits / (hits + misses)], 0 when no lookups happened. *)

val solve :
  Dpm_ctmdp.Model.t ->
  miss:(unit -> (Dpm_ctmdp.Policy_iteration.result, 'e) result) ->
  (Dpm_ctmdp.Policy_iteration.result, 'e) result
(** [solve m ~miss] is the one memoized solve pipeline, shared by
    [Dpm_core.Optimize], [Dpm_scenario.Solve] and the fleet's cluster
    CTMDP:

    + encode [m] once ({!Fingerprint.key}; the provenance digest is
      {!Fingerprint.key_hash} of that key, i.e. {!Fingerprint.model_hash});
    + look the key up — a hit returns the stored result with its
      policy rebuilt for (and validated against) [m] and a private
      copy of the bias vector; gain, iteration count and trace are
      the original solve's;
    + on a miss run the caller's [miss] computation, and store its
      result only when it returns [Ok] (an [Error] or an exception
      passes through and leaves the cache untouched);
    + stamp the provenance [fingerprint], [origin] ([Cache_hit], else
      the miss result's own [Cold]/[Warm]) and [wall_s] (lookup plus
      miss, from entry to return).

    Each caller owns its miss computation — [Optimize] runs its warm
    start and multichain tie-break retry there, so only post-retry
    results are stored; the scenario layer runs the validated,
    deadline-guarded [Dpm_robust.Policy_iteration.solve_r].  The key
    deliberately excludes any warm start: policy iteration converges
    to an average-cost optimum from any start, so any cached optimum
    is a valid answer; callers that need the {e path} (trace
    forensics) should bypass the cache. *)
