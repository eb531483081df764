(** One solve driver for every scenario family.

    The scenario builders ({!Phased}, {!Polling}, {!Batching}) all
    compile to a plain {!Dpm_ctmdp.Model.t}, so one driver covers
    them.  It runs the same pipeline as [Dpm_core.Optimize] and the
    fleet's cluster CTMDP, [Dpm_cache.Solve_cache.solve]: one lookup
    keyed on the structural fingerprint (so e.g. an Erlang-1 phased
    model and its base system share one entry), and on a miss
    validation plus guarded policy iteration through
    [Dpm_robust.Policy_iteration.solve_r]; the pipeline stamps the
    model hash, origin and wall clock into the provenance.

    {!stationary_gain} is the independent cross-check: it re-derives
    the average cost of a fixed policy from the closed-loop chain's
    stationary distribution (GTH elimination — a numerical path
    disjoint from policy iteration's bias equations), which the test
    suite and benches compare against the solver's gain. *)

type solution = {
  actions : int array;  (** optimal action label per state *)
  gain : float;  (** optimal average cost rate *)
  iterations : int;  (** policy-iteration count (the original solve's on a
          cache hit) *)
  provenance : Dpm_trace.Provenance.t;
      (** solve provenance with the fingerprint and origin filled *)
}

val solve :
  ?deadline_s:float ->
  Dpm_ctmdp.Model.t ->
  (solution, Dpm_robust.Error.t) result
(** Look the model up in the solve cache; on a miss validate it, run
    guarded policy iteration (under the optional wall-clock budget)
    and memoize the result.  A failed solve is not stored.  All
    failures arrive as the robustness layer's typed errors — nothing
    raises but runtime-fatal exceptions.  Map it over
    [Dpm_par.parallel_map_list] for a sweep: each point is fenced by
    its own [result], and order determinism gives bit-identical
    output at any domain count. *)

val closed_loop :
  Dpm_ctmdp.Model.t ->
  actions:int array ->
  Dpm_ctmc.Generator.t * Dpm_linalg.Vec.t
(** The chain and cost-rate vector induced by following the given
    action labels — the scenario-layer counterpart of the paper
    system's [generator_of_actions].  Raises [Invalid_argument] when
    some state does not offer its requested label. *)

val stationary_gain :
  ?guard:(unit -> unit) -> Dpm_ctmdp.Model.t -> actions:int array -> float
(** The average cost rate of the fixed policy, computed as [pi . c]
    from the closed-loop stationary distribution
    ({!Dpm_ctmc.Steady_state.solve} — GTH with transient-state
    classification).  Raises [Steady_state.Not_irreducible] when the
    closed loop has no unique limiting distribution. *)
