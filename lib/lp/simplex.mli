(** Bounded-variable revised simplex.

    Solves the continuous relaxation of a {!Model.t}: variable bounds
    are handled implicitly (no explicit rows for [0 <= OP_ijk <= 1]),
    which keeps the basis small — the row count is exactly the number
    of model constraints. Infeasibility is detected with a classic
    artificial-variable phase 1; the basis is held factorized as a
    sparse LU with product-form eta updates ({!Agingfp_linalg.Lu}),
    refactorized when the measured residual drift ‖B x_B − b‖∞
    exceeds [1e-6] or the eta file outgrows its cap. The primal
    feasibility and reduced-cost tolerances are both [1e-7].

    Model assembly and optimization are split: {!assemble} builds a
    persistent solver {!state} once, {!solve_state} optimizes it from
    a cold slack/artificial basis, and after bound/RHS edits
    ({!set_var_bounds}, {!set_rhs}) {!reoptimize} recovers the new
    optimum from the previous basis with a dual-simplex-style
    restoration pass — the branch & bound hot path of the Eq. (3)
    MILPs re-solves children without re-running phase 1.

    This is the stand-in for CPLEX's barrier/simplex in the paper's
    flow. It is adequate for the instance sizes produced by the
    candidate-pruned formulations (thousands of columns, around a
    thousand rows). *)

type solution = {
  values : float array;  (** indexed by model variable *)
  objective : float;     (** objective value incl. constant term *)
  iterations : int;
}

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Deadline
      (** The wall-clock budget ({!params.budget}) expired at a pivot
          checkpoint; the state is left consistent for a later warm
          re-solve under a fresh budget. *)
  | Fault of string
      (** The solve was aborted by an injected or caught solver fault
          ({!Faults}); produced by supervision layers that convert a
          mid-solve exception into a status. *)

type params = {
  max_iterations : int;      (** 0 means automatic: [50 * (m + n) + 5000] *)
  budget : Agingfp_util.Budget.t;
      (** Cooperative wall-clock/allowance budget, polled once per
          pivot. Defaults to {!Agingfp_util.Budget.unlimited}. *)
}

val default_params : params

val solve : ?params:params -> Model.t -> status
(** Solve the LP relaxation (integrality of [Integer] variables is
    ignored). Fixed variables ([lb = ub]) are honoured, so the paper's
    frozen critical-path operations and two-step pre-mapping are
    expressed by {!Model.fix_var} before calling [solve].

    Equivalent to [solve_state (assemble ?params model)], with a fast
    path for constraint-free models. *)

val pp_status : Format.formatter -> status -> unit

(** {1 Persistent solver state (warm starts)} *)

type state
(** A solver state assembled from one model. The sparse columns are
    built once; variable bounds and row right-hand sides can then be
    edited in place between solves. The state does not alias the
    source {!Model.t} — later edits to the model are not seen. *)

val assemble : ?params:params -> Model.t -> state
(** Build the solver state (sparse columns, bounds, RHS) without
    optimizing. *)

val solve_state : state -> status
(** Cold solve: rebuild the initial slack/artificial basis for the
    current bounds/RHS and run phase 1 + phase 2. *)

val reoptimize : state -> status
(** Re-optimize after {!set_var_bounds} / {!set_rhs} edits, starting
    from the basis left by the previous [solve_state]/[reoptimize]
    call (dual-simplex-style feasibility restoration, then primal
    cleanup). Falls back to a cold {!solve_state} on the first call
    and whenever the restoration stalls — usually because its bound
    flips cycle without a pivot, which it detects exactly and exits at
    once — or the warm basis turns out singular. Each such fallback is
    counted in [warm_fallbacks]. *)

val set_var_bounds : state -> int -> lb:float -> ub:float -> unit
(** Change the bounds of a structural (model) variable in place.
    Raises [Invalid_argument] if the index is not a structural
    variable or [lb > ub]. *)

val set_rhs : state -> int -> float -> unit
(** Change the right-hand side of constraint row [i] in place. *)

val set_budget : state -> Agingfp_util.Budget.t -> unit
(** Replace the budget polled by subsequent solves on this state —
    the remap pipeline re-uses one assembled state across many
    deadline slices. *)

(** {1 Objective override (primal heuristics)} *)

val set_cost : state -> (int * float) list -> unit
(** Replace the minimized cost vector with the given linear form over
    structural variables (missing variables get cost 0) until
    {!reset_cost}. The feasibility pump solves distance LPs on the
    same warm state this way. Solutions extracted while the override
    is active still report the {e model} objective. *)

val reset_cost : state -> unit
(** Restore the model cost saved by the first {!set_cost}. No-op if no
    override is active. *)

(** {1 Introspection (primal heuristics, invariant checks)} *)

val column_bounds : state -> int -> float * float
(** Current bounds of any column: [0 .. n-1] structurals, then one
    slack per row, then the phase-1 artificials. Diving reads a
    structural's bounds this way before it fixes the variable. *)

val check_row_mirror : state -> unit
(** Invariant check of the pricing kernel. The row-major mirror of the
    structural entries must match the column store exactly, with every
    column sorted by row; and, when the state holds live factors (a
    solve ran), the mirrored products
    must equal the column-wise dot products bit for bit, [±0] equal,
    for the reduced costs of the current cost vector and for every
    pivot row of [B⁻¹A]. This equality is what keeps the pivots of
    the mirrored pricing identical to column-wise pricing. Raises
    {!Agingfp_util.Invariant.Violation} on the first mismatch. *)

type state_stats = {
  warm_solves : int;   (** [reoptimize] calls served from the parent basis *)
  cold_solves : int;
      (** [solve_state] runs: explicit cold solves, the first
          [reoptimize] on a fresh state, and every warm fallback *)
  warm_fallbacks : int;
      (** [reoptimize] calls on a solved state that restarted cold
          (also counted in [cold_solves]) *)
  lp_iterations : int; (** total simplex pivots/bound flips *)
  refactorizations : int; (** successful basis factorizations *)
  eta_updates : int;   (** product-form updates absorbed by the factors *)
  fill_in : int;
      (** nonzeros of the last successful factorization + the eta file *)
  drift_refreshes : int;
      (** refactorizations forced by measured residual drift *)
}

val state_stats : state -> state_stats
(** Cumulative counters since {!assemble}. *)
