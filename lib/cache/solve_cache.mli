(** The process-wide policy-iteration result cache.

    Memoizes {!Dpm_ctmdp.Policy_iteration.solve} results keyed on the
    {!Fingerprint} of the model.  Entries
    store action {e labels}, not a [Policy.t]: a policy's internal
    choice indices are only meaningful for the exact model instance
    that produced it, so a hit rebuilds the policy against the
    requesting model through [Policy.of_actions] — valid for any
    structurally equal model whatever its choice-list ordering.

    The cache is a single mutex-guarded {!Lru} shared by every
    {!Dpm_par} domain.  Capacity resolves from the [DPM_CACHE]
    environment variable (a nonnegative integer) or defaults to 512;
    the CLI's [--cache] flag lands on {!set_capacity}.  Capacity 0
    disables the cache entirely: {!find} and {!store} become no-ops
    and touch no counters, so benchmarks can measure cold solves.

    {!Dpm_obs} instrumentation: counters [cache.hits],
    [cache.misses], [cache.evictions]; gauges [cache.size],
    [cache.hit_ratio]. *)

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

val find :
  Dpm_ctmdp.Model.t ->
  Dpm_ctmdp.Policy_iteration.result option
(** Cache lookup.  On a hit the returned result carries a policy
    rebuilt for (and validated against) the given model and a private
    copy of the bias vector; gain, iteration count, and trace are the
    original solve's. *)

val store :
  Dpm_ctmdp.Model.t ->
  Dpm_ctmdp.Policy_iteration.result ->
  unit
(** Insert a solve result.  Callers should store only results they
    would be happy to serve verbatim — [Dpm_core.Optimize] stores
    {e after} its multichain-retry path succeeds, so a degenerate
    first attempt is never memoized. *)

val solve :
  ?init:Dpm_ctmdp.Policy.t ->
  ?guard:(unit -> unit) ->
  Dpm_ctmdp.Model.t ->
  Dpm_ctmdp.Policy_iteration.result
(** Memoized {!Dpm_ctmdp.Policy_iteration.solve}: {!find}, else solve
    (with optional warm start [init] and [guard]) and {!store}.  The key deliberately excludes [init]: policy iteration
    converges to an average-cost optimum from any start, so any
    cached optimum is a valid answer; callers that need the {e path}
    (trace forensics) should bypass the cache. *)
