(** Local-search post-pass on an aging-aware floorplan.

    The MILP accepts the first delay-clean floorplan at the current
    [ST_target]; a few hundred greedy relocations can usually shave
    the worst PE further. Each move takes an operation off a
    maximally-stressed PE and re-binds it to a free PE of its context,
    accepting only moves that

    - strictly reduce the maximum accumulated stress (ties broken by
      the second-highest, lexicographically),
    - keep every monitored path within its Eq. (5) wire budget, and
    - keep the exact design CPD at most the baseline CPD.

    Frozen (critical-path) operations never move, so the refinement
    preserves all Algorithm 1 guarantees. *)

open Agingfp_cgrra

type params = {
  max_moves : int;       (** accepted-move budget *)
  neighbourhood : int;   (** how many of the hottest PEs to pull from *)
}

val default_params : params
(** 400 moves, 4 hottest PEs. *)

type stats = {
  moves_accepted : int;
  trials : int;
      (** moves attempted, accepted or rejected: each one applied and
          timed, so [trials >= moves_accepted] *)
  st_before : float;
  st_after : float;
}

val improve :
  ?params:params ->
  ?budget:Agingfp_util.Budget.t ->
  ?initial:float array ->
  Design.t ->
  baseline_cpd:float ->
  frozen:Rotation.plan ->
  monitored:Paths.budgeted list array ->
  Mapping.t ->
  Mapping.t * stats
(** Returns a mapping that is never worse than the input. [initial]
    adds a fixed per-PE wear offset to the leveling objective — the
    lifetime simulator uses it to re-balance against stress already
    accumulated in earlier operating epochs. [budget] is polled once
    per move, so on expiry the pass stops and returns the moves
    accepted so far, never exceeding the deadline by more than one
    move. A move costs a scan of the free PEs of every context of the
    hottest PEs, then a CPD analysis of the one context it touches. *)
