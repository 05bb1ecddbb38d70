(** Linear expressions over integer-indexed decision variables.

    An expression is a sparse map [var -> coefficient] plus a constant
    term. Variables are the integers handed out by {!Model.add_var}. *)

type t

val zero : t

val const : float -> t

val var : ?coef:float -> int -> t
(** [var ~coef v] is the single-term expression [coef * x_v]
    ([coef] defaults to 1). *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val add_term : t -> float -> int -> t
(** [add_term e c v] is [e + c * x_v]. *)

val sum : t list -> t

val of_terms : (int * float) list -> t
(** [of_terms [(v1, c1); ...]] is [c1 * x_v1 + ...]: the same
    expression as adding the terms one by one with {!add_term}, zero
    coefficients and cancelling repeats dropped. *)

val constant : t -> float
val coef : t -> int -> float

val terms : t -> (int * float) list
(** Non-zero terms sorted by variable index. *)

val eval : (int -> float) -> t -> float
(** [eval assignment e] substitutes variable values. *)

val pp : Format.formatter -> t -> unit
