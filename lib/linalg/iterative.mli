(** Iterative stationary solver for sparse CTMC generators.

    GTH elimination covers the paper's instance sizes; large composed
    chains run through these sweeps instead.  The solver reports
    convergence through the {!result} record rather than raising, so
    callers can decide how to treat a hit iteration cap.  The
    {!result} record is shared with the matrix-free
    {!Operator.gauss_seidel_steady}.

    The solver takes an optional [guard] callback, invoked once at the
    top of each sweep; it may raise to abort the iteration — the
    wall-clock-deadline hook threaded down by [Dpm_robust]. *)

type result = {
  solution : Vec.t;  (** last iterate *)
  iterations : int;  (** sweeps performed *)
  residual : float;  (** final convergence measure (see the solver) *)
  converged : bool;  (** whether [residual <= tol] was reached *)
}

val gauss_seidel_steady :
  ?tol:float ->
  ?max_iter:int ->
  ?guard:(unit -> unit) ->
  ?init:Vec.t ->
  Sparse.t ->
  result
(** [gauss_seidel_steady q] solves [p q = 0, sum p = 1] for an
    irreducible CTMC generator [q] by Gauss-Seidel sweeps on the
    normal form [p_j = (sum_{i<>j} p_i q_ij) / (-q_jj)].  Diagonal
    entries must be strictly negative (every state has an exit);
    a zero diagonal raises [Invalid_argument].  [residual] is
    [norm_inf (p q)] of the final normalized iterate. *)
