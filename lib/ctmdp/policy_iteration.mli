(** Average-cost policy iteration for CTMDPs — the paper's solver
    (Section IV, Figure 3; the algorithm of Howard [10] extended to
    continuous time by Miller [9]).

    The evaluation step solves the relative-value (bias) equations of
    the policy's chain,

    {v c_i - g + sum_j G^p_ij v_j = 0,   v_ref = 0 v}

    for the gain [g] (average cost per unit time) and relative values
    [v]; the improvement step replaces each state's action by one
    minimizing the test quantity [c_i^a + sum_j s^a_ij v_j], keeping
    the incumbent on ties.  On a finite unichain model this converges
    to an average-cost-optimal stationary policy in finitely many
    iterations. *)

open Dpm_linalg

type evaluation = {
  gain : float;  (** average cost per unit time, [g] *)
  bias : Vec.t;  (** relative values [v], [v_ref = 0] *)
}

type step = {
  iteration : int;
  policy_actions : int array;  (** action labels, by state *)
  evaluation : evaluation;
  changed_states : int;  (** states whose action the improvement changed *)
}

type result = {
  policy : Policy.t;
  gain : float;
  bias : Vec.t;
  iterations : int;
  trace : step list;  (** chronological *)
  provenance : Dpm_trace.Provenance.t;
      (** how this solve went: method, eval path, iterations, final
          residual, warm/cold origin, Tikhonov rungs, sparse
          fallbacks, wall clock.  The fingerprint is [0L] here; the
          cache layer ([Dpm_cache], [Optimize]) fills it in. *)
}

val evaluate : ?ref_state:int -> Model.t -> Policy.t -> evaluation
(** [evaluate m p] solves the relative-value equations of policy [p].
    [ref_state] (default 0) is the state pinned to bias 0.  Raises
    [Lu.Singular] if the policy's chain is not unichain (the DPM
    action constraints rule this out for models built by
    [Dpm_core]). *)

val evaluate_robust : ?ref_state:int -> Model.t -> Policy.t -> evaluation
(** Like {!evaluate}, but when the policy's chain is multichain (the
    exact system is singular) it re-solves through a Tikhonov
    escalation ladder: a restart rate toward the reference state
    (which restores unichain structure at an O(eps)-relative bias
    error) growing from 1e-9 to 1e-3 of the model's rate scale, one
    rung per failed attempt.  A rung is accepted only when its LU
    factorization succeeds {e and} the solution verifies — a small
    residual on the perturbed system plus an exact-system residual
    consistent with the deliberate O(eps * |x|) bias.  Exhausting the
    ladder re-raises [Lu.Singular].  {!solve} uses this internally so
    multichain policies encountered mid-iteration do not abort the
    optimization.  The system is assembled once, directly from
    [Model.choice]; rungs patch the assembled diagonal in place.
    Probe counters: [policy_iteration.robust_retries] (entries into
    the ladder), [policy_iteration.tikhonov_rungs] (rungs tried),
    gauge [policy_iteration.tikhonov_exact_residual].  Provenance
    records the residual [|A x - b|_inf] of the system it solved (the
    exact system's on a Tikhonov rung), so a solve's reported residual
    is always its last evaluation's. *)

val evaluate_implicit :
  ?ref_state:int ->
  ?tol:float ->
  ?max_iter:int ->
  ?guard:(unit -> unit) ->
  Model.t ->
  Policy.t ->
  evaluation
(** Matrix-free counterpart of {!evaluate_robust}: the policy's rows
    are flattened once into flat index/rate arrays (no generator
    matrix is built) and two Gauss-Seidel stages sweep those arrays
    over allocation-free Bigarray iterates: the stationary
    distribution first (gain = pi . c, in-edge access built by a
    counting sort), then the bias from the [v_ref]-pinned system with
    rows normalized by their exit rate.  The candidate is verified
    against the exact relative-value equations (residual at most
    [1e-7 * max(1, max_i |c_i|)]).  Any failure — multichain structure
    (every state must reach [ref_state]; checked up front by a reverse
    reachability pass), a zero exit rate, non-convergence, or a
    verification miss — falls back to {!evaluate_robust}, so the
    result is always within solver tolerance of dense LU.  [tol]
    (default 1e-12) and [max_iter] (default [max 10_000 (50 n)]) tune
    the sweeps.  [guard] (default no-op) is ticked once per sweep in
    both stages and may raise to abort — the [Dpm_robust]
    deadline/fault hook; its signal propagates out instead of
    triggering the fallback.  Probe counters:
    [policy_iteration.implicit_evals] (answered by the sweeps),
    [policy_iteration.sparse_fallbacks] (answered by dense LU instead),
    [policy_iteration.implicit_sweeps] (total sweeps across both
    stages), gauge [policy_iteration.eval_path] (2 sweeps, 0 dense).
    Provenance records the eval path (["implicit"] or ["dense"]) and
    counts each fallback in [sparse_fallbacks]. *)

val improve : Model.t -> evaluation -> incumbent:Policy.t -> Policy.t * int
(** [improve m eval ~incumbent] returns the greedy policy with
    respect to [eval.bias] and the number of states whose action
    changed.  Ties (within an absolute tolerance of 1e-9) keep the
    incumbent's choice, which guarantees termination. *)

val solve :
  ?ref_state:int ->
  ?max_iter:int ->
  ?init:Policy.t ->
  ?guard:(unit -> unit) ->
  Model.t ->
  result
(** [solve m] runs policy iteration from [init] (default: each
    state's first choice) until the policy is stable.  [max_iter]
    defaults to 1000; exceeding it raises [Failure] (it indicates a
    modeling bug — PI must terminate on finite models).  Each policy
    is evaluated by dense LU ({!evaluate_robust}) below 192 states and
    by the sweeps ({!evaluate_implicit}, with its dense fallback) at or
    above; both agree to solver tolerance.  [guard] (default no-op) is
    invoked at the top of every iteration {e and} threaded into the
    evaluation sweeps, so a deadline fires mid-evaluation rather than
    only between policies — the [Dpm_robust] deadline hook. *)

val brute_force : Model.t -> Policy.t * float
(** [brute_force m] evaluates every stationary policy and returns a
    gain-minimal one.  Exponential; only for cross-checking tiny
    models in tests.  Policies whose chain is multichain (evaluation
    fails) are skipped. *)
