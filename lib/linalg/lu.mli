(** Sparse LU factorization with approximate-Markowitz pivoting,
    triangular solves, and product-form (eta) updates.

    The basis factorization of the revised simplex ([Agingfp_lp]'s
    [Simplex]) and the factor-once/solve-many path of the thermal
    steady-state model. Columns are eliminated left-looking in
    increasing-count order; within a column the pivot row is the
    sparsest row whose magnitude is within a relative threshold of the
    largest, trading bounded pivot growth against fill.

    A factorization [t] represents an [n × n] matrix [A] given by
    columns. {!ftran} solves [A x = b]; {!btran} solves [Aᵀ y = c].
    {!update} replaces one column by appending a product-form eta
    spike; the factors themselves are immutable until the next
    {!factorize}, which also discards the eta file. *)

type t

exception Singular
(** Raised by {!factorize} when no acceptable pivot remains in a
    column, and by {!update} on a (numerically) zero spike pivot. *)

val create : int -> t
(** [create n] allocates a factorization object for [n × n] matrices.
    Nothing is factored yet; the solves raise [Invalid_argument] until
    the first {!factorize}. *)

val dim : t -> int

val is_factored : t -> bool
(** The last {!factorize} succeeded: the solves may run. *)

val factorize : t -> col:(int -> int array * float array) -> unit
(** [factorize t ~col] (re)factors the matrix whose column [j] is the
    sparse vector [col j] ([row indices], [coefficients]); the arrays
    are only read during the call. Resets the eta file.
    @raise Singular if the matrix is (numerically) singular; the
    previous factors are then gone and the solves raise
    [Invalid_argument] until the next successful [factorize]. *)

val ftran : t -> float array -> unit
(** [ftran t b] solves [A x = b] in place: [b] enters indexed by row
    and leaves holding [x] indexed by column, eta file applied. *)

val btran : t -> float array -> unit
(** [btran t c] solves [Aᵀ y = c] in place: [c] enters indexed by
    column and leaves holding [y] indexed by row. *)

val update : t -> r:int -> w:float array -> unit
(** [update t ~r ~w] records the replacement of column [r], where [w]
    is the ftran image [A⁻¹ a] of the incoming column (dense, length
    [n]). @raise Singular if [|w.(r)|] is below the pivot tolerance. *)

(** {1 Kernel accounting} *)

val fill : t -> int
(** Nonzeros stored by the current factors (L + U including the
    diagonal); [0] before the first factorization. *)

val eta_count : t -> int
(** Eta spikes since the last {!factorize}. *)

val eta_nnz : t -> int
(** Total nonzeros across the current eta file. *)

val total_etas : t -> int
(** Eta updates over the lifetime of [t]. *)

val factor_count : t -> int
(** Number of {!factorize} calls on [t]. *)

(** {1 Dense-matrix convenience} *)

val of_matrix : Matrix.t -> t
(** Factorize a dense square matrix (nonzeros are extracted
    column-wise). @raise Singular as {!factorize}. *)

val solve : t -> float array -> float array
(** [solve t b] returns [x] with [A x = b]; [b] is not modified. *)

val solve_transposed : t -> float array -> float array
(** [solve_transposed t c] returns [y] with [Aᵀ y = c]. *)
