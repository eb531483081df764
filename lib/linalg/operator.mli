(** Lazy linear operators: Kronecker-structured generators without
    expansion.

    The composed SYS generator of a power-managed system is a tensor
    expression over small SP and SQ blocks (Section III).  Every
    materialized representation — dense [Matrix.t] or CSR [Sparse.t] —
    pays O(nnz) storage, triplet sorting, and transposition before the
    first sweep runs.  An {!t} instead stores the {e expression}: the
    small factor blocks plus the combinators ([Kron_prod], [Kron_sum],
    [Sum], [Scaled], [Shifted], block grids), and exposes exactly the
    access patterns iterative solvers need — row iteration, mat-vec
    into a preallocated {!Bvec.t}, and stationary Gauss-Seidel sweeps
    that walk the Kronecker factors directly.  Storage is the sum of the factor
    sizes (typically O(|S|{^2} + Q) against O(|S|·Q) expanded nonzeros),
    and no per-sweep allocation occurs.

    Row iteration may visit the same column more than once (e.g. the
    diagonal of a [Kron_sum], or overlapping [Sum] terms); all
    consumers in this module {e accumulate} contributions, and callers
    of {!iter_row} must do the same.

    Probe counters: [operator.matvecs] (calls to {!matvec}),
    [operator.sweeps] (sweeps executed by {!gauss_seidel_steady}). *)

type t
(** A lazy linear operator over flat float64 state vectors. *)

(** {1 Leaves} *)

val dense : Matrix.t -> t
(** [dense m] wraps a dense block; row iteration skips zero entries. *)

val csr : Sparse.t -> t
(** [csr s] wraps a CSR block ({!Sparse.of_triplets} keeps zero-sum
    entries out of the structure, so its rows are genuinely sparse). *)

val diag : float array -> t
(** [diag d] is the square diagonal operator with entries [d]
    (zero entries are skipped on iteration).  The array is captured,
    not copied. *)

val identity : int -> t
(** [identity n] is the [n x n] identity as a diagonal leaf. *)

val of_rows : rows:int -> cols:int -> (int -> (int -> float -> unit) -> unit) -> t
(** [of_rows ~rows ~cols iter] wraps an arbitrary row-iteration
    closure: [iter i f] must call [f j x] for the (accumulating)
    entries of row [i].  Closure leaves are not transposable:
    {!transpose} raises [Invalid_argument] on them. *)

(** {1 Combinators} *)

val kron_prod : t -> t -> t
(** [kron_prod a b] is the Kronecker product [a (x) b]
    (Definition 4.4): entry [((i1,i2),(j1,j2)) = a_{i1 j1} * b_{i2 j2}]
    with the second factor's index minor, matching
    {!Tensor.pair_index}. *)

val kron_sum : t -> t -> t
(** [kron_sum a b] is the Kronecker sum
    [a (x) I + I (x) b] of two {e square} operators ([Invalid_argument]
    otherwise).  Diagonal entries of both factors are emitted
    separately (consumers accumulate). *)

val scaled : float -> t -> t
(** [scaled c a] is [c * a]. *)

val shifted : t -> float -> t
(** [shifted a c] is [a + c I] for square [a] ([Invalid_argument]
    otherwise); the shift is emitted as an extra diagonal
    contribution. *)

val sum : t -> t -> t
(** [sum a b] is [a + b].  Raises [Invalid_argument] on shape
    mismatch.  Overlapping entries are emitted separately. *)

val blocks : row_dims:int array -> col_dims:int array -> t option array array -> t
(** [blocks ~row_dims ~col_dims cells] is the block grid with
    [cells.(bi).(bj)] occupying block row [bi] (height
    [row_dims.(bi)]) and block column [bj] (width [col_dims.(bj)]);
    [None] cells are structurally zero.  Raises [Invalid_argument] if
    the grid is ragged or a cell's shape disagrees with its
    row/column dims. *)

(** {1 Shape and access} *)

val rows : t -> int
(** Number of rows. *)

val cols : t -> int
(** Number of columns. *)

val iter_row : t -> int -> (int -> float -> unit) -> unit
(** [iter_row op i f] applies [f j x] to the entries of row [i].
    Columns are {e not} necessarily sorted and {e may repeat};
    repeated contributions to one coordinate must be summed by the
    caller. *)

val get : t -> int -> int -> float
(** [get op i j] is entry [(i,j)], accumulated over repeats — O(row)
    via {!iter_row}; for tests and debugging, not for kernels. *)

val diagonal : t -> float array
(** [diagonal op] is the accumulated diagonal of a square operator
    (one full row sweep, O(nnz)). *)

val transpose : t -> t
(** [transpose op] is the structural transpose — factors are
    transposed, combinators preserved, so the result stays lazy.
    Raises [Invalid_argument] on {!of_rows} leaves, which carry no
    column structure. *)

(** {1 Kernels} *)

val matvec : t -> Bvec.t -> dst:Bvec.t -> unit
(** [matvec op x ~dst] stores [op x] in [dst] without allocating;
    [dst] must not alias [x].  Raises [Invalid_argument] on dimension
    mismatch.  Counted on [operator.matvecs]. *)

val gauss_seidel_steady :
  ?tol:float ->
  ?max_iter:int ->
  ?guard:(unit -> unit) ->
  ?init:Vec.t ->
  ?order:int array ->
  t ->
  Iterative.result
(** [gauss_seidel_steady op] solves [p op = 0], [sum p = 1] for the
    stationary row vector of a generator presented implicitly — the
    matrix-free counterpart of {!Iterative.gauss_seidel_steady} (same
    defaults and result record; [tol] bounds the L1 change of the
    normalized iterate between sweeps).  Column access comes from the
    {e structural} {!transpose}, so the operator must be transposable,
    square, and have strictly negative accumulated diagonal
    ([Invalid_argument] otherwise).

    One iteration is a {e symmetric} sweep: every row along [order]
    (default: index order; must be a permutation, [Invalid_argument]
    otherwise), then the same rows in reverse.  Gauss-Seidel moves
    probability one update-position per sweep against the update
    order, so on chains with long directional cascades (a queue
    draining through interleaved transfer states) the iteration count
    is governed by how well [order] aligns with the flow: a
    flow-aligned order (e.g. [Sys_model.sweep_order], which follows
    the queue coordinate of the Kronecker structure) makes the count
    essentially depth-independent, while a misaligned one degrades to
    one position per iteration. *)

(** {1 Materialization and cost accounting} *)

val to_dense : t -> Matrix.t
(** [to_dense op] expands to a dense matrix (accumulating repeats) —
    for tests and small instances only. *)

val to_sparse : t -> Sparse.t
(** [to_sparse op] expands to CSR through the triplet path —
    the expansion an implicit solve avoids; used by tests and by the
    scaling bench to price the materialized alternative. *)

val stored_floats : t -> int
(** [stored_floats op] counts the float entries actually held by the
    expression tree (dense blocks count fully, CSR blocks their nnz,
    closure leaves 0) — the implicit representation's memory
    footprint. *)

val materialized_nnz : t -> int
(** [materialized_nnz op] is an upper bound on the nonzeros a CSR
    expansion of [op] would store ([nnz(A)·nnz(B)] for products,
    [nnz(A)·n_B + n_A·nnz(B)] for sums, …) — the memory the lazy
    representation saves; the peak-memory proxy reported by the
    scaling bench. *)
