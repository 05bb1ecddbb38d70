(** Mixed-integer solving on top of {!Simplex}.

    The search is a real branch & bound tree ({!Node_store}): explicit
    nodes with parent links and per-node dual bounds, plunge-then-jump
    node selection (dive depth first, jump to the best dual bound when
    the dive dies), pseudocost branching seeded by strong-branching
    probes ({!Brancher}), and a global dual bound maintained as the
    minimum over open nodes. Root primal heuristics ({!Heuristics})
    may seed the incumbent before the first branching.

    Two entry points:

    - {!solve}: presolve ({!Presolve}) followed by the tree search.
      The root node runs a cold simplex solve; every descendant
      re-optimizes a warm solver state (dual-simplex recovery), so
      child nodes skip column assembly and phase 1.
    - {!relax_and_fix}: the paper's two-step MILP (§V.B Step 1) —
      solve the LP relaxation, pre-map every binary whose relaxed
      value exceeds a threshold (0.95 in the paper) to 1, then run
      branch & bound on the residual problem. The unfixed model is
      presolved first: when presolve proves it infeasible the call
      returns [Infeasible] with no LP solved (a pre-mapping of it has
      no integer point either). Otherwise the presolved model is
      kept, and when the pre-mapping makes the residual infeasible
      the fallback branch & bound searches it without presolving
      again.

    Returned solutions are always in the original variable space with
    integer variables rounded to exact integral values. *)

type result =
  | Feasible of Simplex.solution
      (** Integer-feasible; optimal when the search ran to completion
          with [first_solution = false], first-found otherwise. *)
  | Infeasible
  | Unknown  (** Budget exhausted before any integer solution. *)

type params = {
  lp_params : Simplex.params;
  node_limit : int;
  integrality_tol : float;
  first_solution : bool;
      (** Stop at the first integer-feasible point (a feasible node or
          a root-heuristic incumbent); the default. The floorplanner
          asks formulation (3) for feasibility only: its default
          objective (the floorplan library's
          [Ilp_model.Min_displacement]) steers which feasible
          floorplan the search reaches first, but the returned point
          is not proven optimal. [false] runs
          the search to an optimality proof — the reference mode the
          tests compare against. Strong branching probes are skipped
          when [true]: they only pay for dual-bound growth. *)
  presolve : bool;  (** Run {!Presolve} before the search. Default [true]. *)
  warm_start : bool;
      (** Re-optimize tree nodes from the previous basis instead of
          solving each node cold. Default [true]. *)
  budget : Agingfp_util.Budget.t;
      (** Wall-clock/allowance budget checked at every node entry and
          threaded into presolve and the node LPs (overriding
          [lp_params.budget] when not unlimited). On expiry the search
          stops and returns the best incumbent found so far. Default
          {!Agingfp_util.Budget.unlimited}. *)
  heuristics : bool;
      (** Root primal heuristics ({!Heuristics}): diving and the
          feasibility pump, run on the root relaxation under
          {!Heuristics.budget_fraction} of the solve budget to seed
          the incumbent before node 1. Candidates are installed only
          after passing {!Model.check_feasible}. With [first_solution]
          an incumbent they find ends the search. Default [true];
          [false] is the bare-search reference. *)
}

val default_params : params

(** {1 Solver statistics} *)

type stats = {
  presolve : Presolve.reductions;
  nodes : int;          (** branch & bound nodes explored *)
  warm_solves : int;    (** node LPs served from a previous basis *)
  cold_solves : int;    (** full phase-1 LP solves, warm fallbacks included *)
  warm_fallbacks : int;
      (** warm re-solves that restarted cold
          ({!Simplex.state_stats}); a subset of [cold_solves] *)
  lp_iterations : int;  (** total simplex pivots/bound flips *)
  refactorizations : int;
      (** basis-kernel factorizations ({!Simplex.state_stats}) *)
  eta_updates : int;    (** product-form updates absorbed by the kernel *)
  fill_in : int;        (** peak nonzeros of live factors + eta file *)
  drift_refreshes : int;
      (** refactorizations forced by measured residual drift *)
  dual_bound : float;
      (** global dual bound in the original objective space: a lower
          bound for minimization, an upper bound for maximization.
          Equals the incumbent objective when the search proved
          optimality; [nan] when no tree search ran. Aggregation
          keeps the most recent solve's bound (bounds of different
          models are not comparable). *)
  gap : float;
      (** achieved relative optimality gap: [0] on a completed proof,
          the honest distance between incumbent and dual bound on any
          early stop ([infinity] when nothing was proven). Aggregation keeps the
          maximum — an aggregate is only as certified as its loosest
          member. *)
  stop : Agingfp_util.Budget.stop_reason;
      (** Why the search ended: [Optimal] means it ran to natural
          completion (proved optimality/infeasibility or hit
          [first_solution]); anything else names the budget limit or
          fault that cut it short. Aggregation keeps the most severe
          reason. *)
  cuts_separated : int;
  cuts_active : int;
      (** Always [0]: the search separates no cutting planes. The two
          fields stay because the product-path benchmark
          ([perf/workloads.ml]) still reports them as [cuts.separated]
          and [cuts.active]; the next change to that benchmark drops
          them. *)
  heuristic_incumbents : int;
      (** incumbents installed by diving / the feasibility pump *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats
val pp_stats : Format.formatter -> stats -> unit

val reset_cumulative : unit -> unit
(** Zero the process-wide cumulative counters (every [solve] /
    [relax_and_fix] call and every {!note_lp_solve} accumulates into
    them). *)

val cumulative : unit -> stats
(** The sum of every solve since the last {!reset_cumulative}. Its
    [dual_bound] is always [nan]: it is a per-model value, and "the
    most recent solve's" would depend on which of several concurrent
    solves finished last. Each result's own stats carry it. *)

val note_lp_solve :
  ?warm_fallbacks:int ->
  ?refactorizations:int ->
  ?eta_updates:int ->
  ?fill_in:int ->
  ?drift_refreshes:int ->
  warm:bool ->
  iterations:int ->
  unit ->
  unit
(** Record a bare {!Simplex} solve performed outside [Milp] (the remap
    pipeline solves many standalone LP relaxations) so it shows up in
    {!cumulative}; the optional arguments carry the kernel-counter
    deltas from {!Simplex.state_stats} (all default to [0]). *)

(** {1 Solving} *)

val solve : ?params:params -> Model.t -> result
(** Branch & bound. The input model is not modified. *)

val solve_with_stats : ?params:params -> Model.t -> result * stats

val relax_and_fix : ?threshold:float -> ?params:params -> Model.t -> result
(** [threshold] defaults to 0.95 as in the paper. The input model is
    not modified; reported solutions are checked against the original
    model before being returned. Note: when the pre-fixed residual
    solves, the reported [gap]/[dual_bound] are relative to the
    residual model — the pre-mapping is a heuristic restriction. *)

val relax_and_fix_with_stats :
  ?threshold:float -> ?params:params -> Model.t -> result * stats

val pp_result : Format.formatter -> result -> unit
