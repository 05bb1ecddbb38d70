(** Branching-variable selection: pseudocost branching.

    The brancher keeps per-variable, per-direction averages of
    the LP objective degradation per unit of rounded-away fraction and
    picks the candidate maximizing the product of its estimated
    up/down degradations. Variables not yet observed in both
    directions are {!unreliable}: the search
    seeds them with strong-branching probes at shallow depth, feeding
    each probe's delta back through {!observe}.

    Selection is deterministic (ties break on candidate order, i.e.
    variable index). *)

type t

val create : nvars:int -> t

val fractional : integrality_tol:float -> int list -> float array -> (int * float) list
(** [(var, relaxed value)] for every integer variable whose value sits
    more than [integrality_tol] from an integer, in input order. *)

val unreliable : t -> var:int -> bool
(** True while [var] lacks an observation in either direction — a
    strong-branching probe is worth its LP solves. *)

val observe : t -> var:int -> dir:Node_store.dir -> frac:float -> delta:float -> unit
(** Record that rounding [var] by [frac] in [dir] degraded the
    relaxation objective (minimize-sign space) by [delta]. Non-finite
    deltas and vanishing fractions are ignored. *)

val score : t -> var:int -> value:float -> float
(** The pseudocost product score of branching on [var] at relaxed
    [value]; falls back to the fractionality when unobserved. *)

val select : t -> (int * float) list -> int option
(** The highest-{!score} variable among [candidates] (ties: the
    first in candidate order); [None] iff the list is empty. *)
