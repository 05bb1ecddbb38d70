(** Explicit branch & bound node tree with a global dual bound.

    Stores the open frontier of a B&B search as real nodes — parent
    link, depth, path bound-changes and the dual bound inherited from
    the parent's LP relaxation — indexed by two lazy-deletion heaps so
    the search can pop nodes plunge-then-jump — dive depth first while
    the current dive keeps producing children, jump to the best dual
    bound when it dies — and can always read the global dual bound
    (the minimum over open and in-flight nodes) that certifies the
    reported optimality gap.

    Determinism: every heap key ends with the node id (assigned in
    creation order), so traversal is a pure function of the insertion
    sequence — independent of hash seeds ([OCAMLRUNPARAM=R]) and of
    physical addresses. At most one node is in flight at a time. *)

type dir = Down | Up

type branch = {
  var : int;    (** branching variable *)
  dir : dir;    (** which side of the split this node is *)
  frac : float;
      (** fractional distance rounded away in this direction at the
          parent's relaxation (pseudocost denominator) *)
}

type node = {
  id : int;
  parent : int;  (** [-1] for the root *)
  depth : int;
  bound : float;
      (** dual bound in minimize-sign space — the parent's LP
          relaxation objective; [neg_infinity] at the root *)
  fixes : (int * float * float) list;
      (** [(var, lb, ub)] bound changes on the path from the root,
          deepest first *)
  branch : branch option;  (** how this node was split off its parent *)
}

type t

val create : unit -> t
(** An empty store. *)

val add :
  t ->
  parent:int ->
  depth:int ->
  bound:float ->
  fixes:(int * float * float) list ->
  branch:branch option ->
  int
(** Enqueue a node; returns its id (creation order, the deterministic
    tie-break key). *)

val take : t -> node option
(** Pop the next node and mark it in flight: the newest node while
    it is a child of the most recently expanded one (the dive goes
    on), otherwise the lowest dual bound (ties: oldest node) — depth
    first's quick incumbents with best first's bound growth. Its
    bound keeps anchoring {!dual_bound} until {!finish}. [None] when
    the open set is empty. *)

val finish : t -> unit
(** Close the in-flight node: it was solved and either pruned,
    integral, infeasible, or its children were {!add}ed. Not calling
    this (search aborted mid-node) conservatively keeps the
    node's bound in {!dual_bound}. *)

val dual_bound : t -> float
(** Global dual bound in minimize-sign space: the minimum over every
    open node and the in-flight one. [infinity] when the tree is
    drained (the incumbent, if any, is proven optimal). Monotone non-decreasing
    over a run: children inherit their parent's relaxation objective,
    which is never below the parent's own bound. *)
