(** The cluster-level CTMDP: how many servers to keep on.

    Following the multi-level decomposition of Chitsaz et al.
    (PAPERS.md), the cluster controller sees only an aggregate state
    [(load phase, active count)] and chooses a target count in
    [{k-1, k, k+1}]: a birth-death CTMDP whose per-state running cost
    is the sum of the {e optimal per-server gains} at the routed
    rates (one {!Dpm_core.Optimize} solve per distinct
    (group, rate) job, deduplicated through the solve cache and
    sharded over {!Dpm_par}), plus the off-power of deactivated
    servers, plus boot/shutdown energy at the transition rates.  The
    chain moves between counts at the spec's boot/shutdown rates and
    between load phases at the [load]'s switch rates. *)

type load = {
  rates : float array;  (** fleet-wide arrival rate per phase, [> 0] *)
  switch : float array array;
      (** phase-switch rates; [switch.(m).(m')] with [m <> m'] is the
          rate from phase [m] to [m'] ([>= 0]); diagonals ignored *)
}
(** A modulating fleet-load process (MMPP-style). *)

val uniform_load : rate:float -> load
(** A single stationary phase. *)

val cyclic_load : (float * float) list -> load
(** [cyclic_load [(rate, dwell); ...]] is a cyclic phase chain where
    phase [m] holds mean [dwell] seconds then moves to the next
    phase (wrapping).  A single pair degenerates to
    {!uniform_load}.  Raises [Invalid_argument] on non-positive
    rates or dwells. *)

type measures = {
  expected_active : float;  (** stationary mean active count *)
  fleet_power : float;
      (** stationary electrical power (W): active servers at their
          optimal-policy draw + off-power + transition energy rate *)
  fleet_waiting : float;  (** stationary mean requests in the fleet *)
  fleet_throughput : float;  (** stationary accepted requests per s *)
  fleet_waiting_time : float;
      (** completion-weighted mean sojourn, [waiting / throughput]
          by Little's law on the accepted rate (0 when idle) *)
}
(** Stationary fleet-level functionals of the optimal cluster
    policy. *)

type t = {
  spec : Spec.t;
  load : load;
  counts : int array;  (** admissible active counts, ascending *)
  stay_cost : float array array;
      (** [stay_cost.(m).(ki)]: weighted running cost of holding
          [counts.(ki)] servers in phase [m] — per-server optimal
          gains plus off-power plus [loss_penalty] times the shed
          rate *)
  power_tbl : float array array;
      (** per-cell electrical power (W): optimal-policy draw of the
          active servers plus off-power of the rest *)
  waiting_tbl : float array array;
      (** per-cell stationary mean requests in the fleet *)
  throughput_tbl : float array array;
      (** per-cell stationary accepted requests per second *)
  targets : int array;
      (** optimal target count per flat state [m * K + ki] *)
  gain : float;  (** optimal average cost of the cluster CTMDP *)
  iterations : int;  (** policy-iteration sweeps *)
  stationary : float array;
      (** stationary distribution of the closed-loop cluster chain,
          flat over [m * K + ki] *)
  failures : ((int * float) * Dpm_robust.Error.t) list;
      (** per-(group, routed rate) solve failures — those cells use a
          pessimistic finite cost instead *)
  provenance : Dpm_trace.Provenance.t;
      (** provenance of the cluster CTMDP's own solve: fingerprint,
          origin ([Cache_hit] when the solve cache answered), eval
          path, iterations, wall clock *)
}
(** A solved cluster controller. *)

val solve : ?domains:int -> ?guard:(unit -> unit) -> Spec.t -> load:load -> t
(** [solve spec ~load] builds and solves the cluster CTMDP.  All
    distinct per-server (group, routed rate) solves run first, on
    the domain pool, through the solve cache; a failed solve is
    tallied and its cells priced at {!Spec.max_power} + weight * Q
    (pessimistic, finite — {!Dpm_ctmdp.Model.create} rejects
    infinities).  The cluster CTMDP itself then goes through the same
    pipeline ({!Dpm_cache.Solve_cache.solve}), with policy iteration
    started from the drain-toward-the-static-optimum policy on a
    miss, so a repeat solve of the same spec and load is served from
    the cache.  Results are bit-identical at any domain count.
    Raises [Invalid_argument] on a malformed load. *)

val num_phases : t -> int
(** Number of load phases. *)

val target : t -> phase:int -> active:int -> int
(** The optimal commanded count in state [(phase, active)]. *)

val static_best : t -> phase:int -> int
(** The count minimizing the stay cost of [phase] — the closed-form
    optimum when transitions are free and the phase is held
    forever. *)

val settle : t -> phase:int -> from:int -> int
(** Follow the optimal policy's count dynamics from [from] within a
    held [phase] until a fixed point (or a bounded number of steps):
    the count the cluster dwells at. *)

val measures : t -> measures
(** Stationary fleet functionals under the optimal policy (see
    {!measures}). *)
