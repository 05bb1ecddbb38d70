(** Seeded fault injection for the LP/MILP layer.

    Production MILP stacks misbehave in ways unit tests of the happy
    path never exercise: premature iteration limits, numerically
    perturbed pivots, infeasibility verdicts that are simply wrong,
    and exceptions escaping mid-solve. This module makes {!Simplex}
    and {!Milp} raise exactly those failures {e on purpose}, at
    configurable probabilities from a seeded deterministic stream, so
    the [test_faults] suite can prove the remap pipeline's degradation
    ladder survives every class:

    - {e spurious iteration limit} — a simplex checkpoint reports
      [Iteration_limit] although iterations remain;
    - {e perturbed pivot} — a pivot step length is scaled by a random
      factor, corrupting the numerics the way a near-singular basis
      would;
    - {e forged infeasibility} — an [Optimal] solve exit is replaced
      by [Infeasible], the solver lying the way a buggy phase 1 lies;
    - {e mid-solve exception} — {!Injected} is raised from inside the
      pivot loop, modelling a crash in foreign solver code.

    The injector is process-global and off by default ({!clear}); the
    solver hot path pays one branch on a [bool ref] when no spec is
    installed. A mutex serializes the draws and the {!fired} counts,
    so domains that solve at once (a remap's Freeze and Rotate runs)
    share one stream safely; the stream is then deterministic per seed
    but which domain gets which draw is not. Injection sites only fire at state-consistent
    checkpoints (loop heads, solve exits), so a surviving solver
    state remains structurally valid — warm restarts after a fault
    are expected to work. *)

exception Injected of string
(** Raised by {!checkpoint} when a mid-solve exception fires. The
    payload names the site (e.g. ["Simplex.optimize"]). *)

type spec = {
  seed : int;
  p_iteration_limit : float;  (** per simplex-pivot checkpoint *)
  p_perturb : float;          (** per pivot step *)
  perturb_mag : float;        (** relative step-scale magnitude, e.g. 0.05 *)
  p_infeasible : float;       (** per optimal solve exit *)
  p_exception : float;        (** per simplex-pivot checkpoint *)
}

val none : spec
(** All probabilities zero (seed 0) — installing it is equivalent to
    {!clear}. *)

val of_string : string -> (spec, string) result
(** Parse a CLI spec: comma-separated [key=value] with keys [seed],
    [iter], [pivot], [mag], [infeas], [raise] — e.g.
    ["seed=42,infeas=0.5,raise=0.05"]. Unmentioned keys default to
    {!none}'s values. *)

val to_string : spec -> string

val install : spec -> unit
(** Arm the injector with a fresh deterministic stream derived from
    [spec.seed]. Resets the {!fired} counters. *)

val clear : unit -> unit
val active : unit -> bool

val with_spec : spec -> (unit -> 'a) -> 'a
(** [with_spec spec f] runs [f] with the injector armed and disarms
    it afterwards, exceptions included. *)

(** {1 Counters}

    How many faults of each class actually fired since the last
    {!install} — tests use these to distinguish "pipeline survived
    the fault" from "the fault never happened". *)

type fired = {
  iteration_limits : int;
  perturbations : int;
  infeasibilities : int;
  exceptions : int;
}

val fired : unit -> fired

(** {1 Solver hooks}

    Called by {!Simplex} at its checkpoints. All are no-ops (and
    branch-predictable) when the injector is disarmed. *)

val checkpoint : where:string -> unit
(** Pivot-loop head. Raises {!Injected} with probability
    [p_exception]. *)

val spurious_iteration_limit : unit -> bool
(** True with probability [p_iteration_limit]. *)

val step_scale : unit -> float
(** [1.0], or [1.0 ± U(0, perturb_mag)] with probability
    [p_perturb]. *)

val forge_infeasible : unit -> bool
(** True with probability [p_infeasible]. *)
