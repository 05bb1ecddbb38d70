(** Candidate-PE pruning for the MILP binaries.

    Instantiating [OP_ijk] for every PE k reproduces the paper's full
    formulation but does not scale without CPLEX; the path-delay
    constraints themselves bound how far a monitored operation can
    move, so candidates outside that radius are provably useless
    (DESIGN.md §5). Within the radius the set is capped: the
    operation's original PE, its nearest free PEs, and the
    least-stressed PEs of the baseline floorplan (the targets stress
    leveling actually wants). *)

open Agingfp_cgrra

type params = {
  max_candidates : int;  (** cap per operation (0 = unlimited) *)
  unmonitored_radius : int;
      (** move radius for ops on no monitored path; the post-remap
          CPD check (Algorithm 1 line 12) guards these *)
}

val default_params : params
(** max_candidates = 14, unmonitored_radius = whole fabric (a large
    constant clamped to the fabric diameter). *)

type t
(** Candidate sets for one remapping problem. *)

val build :
  ?budget:Agingfp_util.Budget.t ->
  ?params:params ->
  Design.t ->
  Mapping.t ->
  frozen:Rotation.plan ->
  monitored:Paths.budgeted list array ->
  t
(** Costs one O(PEs) scan per operation, O(ops × PEs) in all, plus
    the sets themselves. When [budget] (default unlimited) expires
    mid-build, the remaining operations receive the trivial radius-0
    candidate set — still structurally valid, so the deadline-bounded
    caller can keep degrading gracefully. *)

val get : t -> ctx:int -> op:int -> int list
(** Candidate PEs for an unfrozen operation (always contains its
    original PE unless a frozen op claimed it); the singleton pin for
    a frozen one. *)

val is_frozen : t -> ctx:int -> op:int -> bool

val radius : t -> ctx:int -> op:int -> int
(** The slack-derived move radius used for this op. *)
