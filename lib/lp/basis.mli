(** Abstract simplex basis kernel: factorize / ftran / btran / update.

    The revised simplex never forms [B⁻¹] itself; it asks this module
    to (re)factorize the current basis, map vectors through [B⁻¹]
    (ftran) and [B⁻ᵀ] (btran), and absorb one column replacement per
    pivot ([update]). Two implementations are selectable per solver
    state via {!Simplex.params}:

    - {!Sparse_lu} (default): {!Agingfp_linalg.Lu} — sparse LU with
      approximate-Markowitz pivoting and a product-form eta file;
    - {!Dense}: the explicit dense inverse of the pre-kernel solver,
      retained as the reference path for equivalence testing and the
      bench kernel scenario.

    The kernel also carries the counters surfaced by
    {!Simplex.state_stats}. *)

type kind = Dense | Sparse_lu

val pp_kind : Format.formatter -> kind -> unit

exception Singular
(** A factorization or update met a (numerically) zero pivot. *)

type t

val create : kind -> int -> t
(** [create kind m] for an [m]-row basis. No factorization yet. *)

val kind : t -> kind

val factorize : t -> col:(int -> int array * float array) -> unit
(** [factorize t ~col] factors the basis whose position [i] holds the
    sparse column [col i]. Discards any pending eta updates.
    @raise Singular, leaving the kernel unfactored. *)

val is_factored : t -> bool
(** The last {!factorize} succeeded: the solves may run. *)

val ftran : t -> float array -> unit
(** In place: row-space vector in, [B⁻¹ v] in basis-position space
    out. *)

val btran : t -> float array -> unit
(** In place: basis-position-space vector in, [B⁻ᵀ v] in row space
    out. *)

val btran_unit : t -> int -> float array -> unit
(** [btran_unit t r out] writes row [r] of [B⁻¹] into [out] — the
    pricing row of the dual ratio test. *)

val update : t -> r:int -> w:float array -> unit
(** Replace the basis column in position [r], where [w = B⁻¹ A_e] is
    the ftran image of the entering column. @raise Singular *)

(** {1 Kernel accounting} *)

val refactorizations : t -> int
(** {!factorize} calls. *)

val eta_count : t -> int
(** Updates absorbed since the last {!factorize} — the refactorization
    policy's eta-file length. *)

val eta_updates : t -> int
(** Lifetime {!update} count. *)

val fill_in : t -> int
(** Nonzeros held by the live factors plus the eta file ([m²] for the
    dense kernel). *)

val drift_refreshes : t -> int
(** Refactorizations that were forced by measured residual drift; the
    owning solver calls {!note_drift_refresh} when that is the
    trigger. *)

val note_drift_refresh : t -> unit
