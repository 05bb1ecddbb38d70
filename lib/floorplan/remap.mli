(** Algorithm 1: the aging-aware re-mapping design flow.

    Pipeline (paper §V):
    + Step 1 — binary search for the accumulated-stress lower bound
      [ST_target], probing the delay-unaware relaxation of (3) with a
      best-fit-decreasing packing;
    + Step 2.1 — critical-path constraint generation ({!Rotation});
    + Step 2.2 — path wire-length budgets ({!Paths});
    + Step 2.3 — iterate the two-step MILP, relaxing [ST_target] by Δ
      until a floorplan exists {e and} the exact re-computed CPD does
      not exceed the original CPD.

    One group solver runs Eq. (3) on a group of contexts: every
    context at once when the estimated binaries number at most
    [monolithic_var_limit] (the paper's formulation verbatim), or one
    context at a time against the residual per-PE stress budgets the
    earlier groups left (the scaling decomposition of DESIGN.md §5).
    For each group it solves the LP relaxation, packs the group's
    contexts guided by it, and falls back to the paper's two-step MILP
    ({!Agingfp_lp.Milp.relax_and_fix}): LP relaxation, pre-mapping of
    binaries [>= 0.95], then branch & bound to the first feasible
    floorplan, cut at 120 nodes.

    Step 1 bisects [ST_target] 8 times; the Δ-loop then relaxes it by
    Δ = (ST_up − Step-1 value) / 16 per attempt, for at most 24
    attempts per ladder rung. *)

open Agingfp_cgrra

type params = {
  seed : int;
  encoding : Ilp_model.encoding;
  objective : Ilp_model.objective;
  candidate_params : Candidates.params;
  path_params : Paths.params;
  monolithic_var_limit : int;
      (** one monolithic MILP when the estimated binaries number at
          most this, per-context solves otherwise: [max_int] forces
          monolithic, [-1] per-context *)
  refine : bool;
      (** run the {!Refine} local-search post-pass on success (an
          extension beyond the paper; disable to reproduce the bare
          Algorithm 1) *)
  refine_params : Refine.params;
  certify : bool;
      (** re-verify every optimal LP point and MILP result in exact
          rational arithmetic ({!Agingfp_lp.Certify}) as the flow
          runs; rejections are logged and counted in
          {!certification}. Off by default. *)
  deadline_s : float option;
      (** wall-clock deadline for the whole solve (monotonic clock).
          On expiry the degradation ladder descends to ever cheaper
          machinery and, at worst, returns the audited baseline —
          {!solve} never hangs past the deadline by more than one
          cooperative checkpoint interval. [None] (default) reproduces
          the unbounded behaviour. *)
}

val default_params : params

(** {2 Degradation ladder}

    Every solve walks a fixed ladder of machineries, each under a
    slice of the remaining budget: the full two-step MILP, a
    node-capped relax-and-fix, LP-guided rounding without branch &
    bound, an LP-free refine floor, and finally the unmodified
    baseline mapping (always audit-clean, since its budget is the
    baseline's own maximum stress). The LP rungs get 1/4, 1/3 and 1/2
    of what is left when they start; the floor gets the rest, and is
    also where a rung that exhausts its Δ-loop without a cut lands.
    A rung is accepted only if its floorplan passes the independent
    {!Audit}; the rung that produced the returned mapping and every
    downgrade on the way are reported in the {!result}. *)

type rung =
  | Full_milp      (** LP + structured rounding + two-step MILP, full node budget *)
  | Relax_and_fix  (** same, branch & bound node-capped hard *)
  | Lp_rounding    (** LP-guided structured rounding only *)
  | Heuristic
      (** the refine floor: {!Refine.improve} straight from the mode's
          reference under the budget left, no LP machinery at all. It
          counts only if it accepted a move, its max stress is below
          [st_up] and it passes the audit at that max stress, which is
          then its [st_target]. Off when [refine = false]. *)
  | Baseline       (** the input mapping, unchanged *)

val pp_rung : Format.formatter -> rung -> unit
val rung_to_string : rung -> string

type degradation_step = {
  rung : rung;  (** the rung that was degraded {e from} *)
  reason : Agingfp_util.Budget.stop_reason;
  detail : string;  (** human-readable context, e.g. which fallback fired *)
}

val pp_degradation_step : Format.formatter -> degradation_step -> unit

type result = {
  mapping : Mapping.t;
  st_target : float;      (** final accepted budget *)
  st_lower_bound : float; (** Step 1 result *)
  st_up : float;          (** baseline max accumulated stress *)
  outer_iterations : int;
  baseline_cpd_ns : float;
  new_cpd_ns : float;
  improved : bool;
      (** false when every attempt failed and the baseline mapping is
          returned unchanged *)
  audit : Audit.report;
      (** independent re-check of the returned floorplan against
          formulation (3)'s semantics — run on every result, MILP
          untrusted; a failed audit is logged as an error *)
  rung : rung;  (** the ladder rung that produced [mapping] *)
  degradation : degradation_step list;
      (** chronological downgrades recorded on the way to [rung];
          empty when the full machinery succeeded undisturbed *)
  gap : float;
      (** worst (largest) finite relative optimality gap reported by
          any branch & bound run inside the ladder: [0.0] when every
          B&B that ran proved optimality, the incumbent's distance to
          the dual bound when a search stopped early (first feasible
          node or budget), [nan] when no B&B ran at all (rounding
          succeeded without it, or the flow never got that far) *)
  dual_bound : float;
      (** the most recent finite global dual bound those runs
          reported, in the MILP's objective space; [nan] when none *)
  rung_stats : (rung * Agingfp_lp.Milp.stats) list;
      (** solver work per ladder rung attempted, in ladder order: every
          LP relaxation and B&B inside a rung accumulates into its
          entry, so summing
          [nodes]/[lp_iterations] across entries reproduces the
          {!Agingfp_lp.Milp.cumulative} delta of the ladder (Step 1's
          bisection solves excluded — they run before the ladder) *)
}

(** {2 Solution certification}

    Cumulative counters over the exact-rational certificates checked
    while [certify] was set, mirroring {!Agingfp_lp.Milp.cumulative};
    the CLI's [remap --certify] reports them. *)

type certification_stats = {
  lp_checked : int;  (** optimal LP relaxation points verified *)
  milp_checked : int;  (** MILP results verified *)
  rejected : int;
  failures : string list;  (** most recent rejections, newest first *)
}

val reset_certification : unit -> unit
val certification : unit -> certification_stats

val step1_lower_bound :
  ?params:params -> ?budget:Agingfp_util.Budget.t -> Design.t -> Mapping.t -> float
(** Step 1's [ST_target] (Algorithm 1 line 2): the lowest value at
    which the greedy best-fit-decreasing packer of the delay-unaware
    relaxation succeeded. It is a heuristic start for the Δ-loop, not
    a proven lower bound: a floorplan may need less. When [budget]
    expires mid-bisection the packer's lowest success so far is
    returned, which is higher. *)

val build_formulation :
  ?params:params -> mode:Rotation.mode -> Design.t -> Mapping.t ->
  Ilp_model.instance * float
(** The full formulation-(3) instance (all contexts) the flow would
    solve first, budgeted at the Step-1 lower bound, plus that bound —
    the model [agingfp export-lp] writes and [agingfp lint] checks. *)

(** {2 Warm state across solves}

    Assembled simplex states survive one {!solve} call and warm-start
    the next — the payoff when the {e same} (design, baseline, params)
    triple is solved repeatedly, as in `agingfp serve`'s fleet
    re-submission path. *)

type warm
(** Opaque warm-solve state: one solver cache per
    {!Rotation.mode} (Freeze and Rotate build structurally different
    instances). Must not be shared by two concurrent solves — simplex
    states belong to one domain at a time. Correctness never depends
    on its contents: cached instances are rebudgeted consistently with
    their own structure and every result still passes the independent
    {!Audit}. *)

val new_warm : unit -> warm

val solve :
  ?warm:warm -> ?params:params -> mode:Rotation.mode -> Design.t -> Mapping.t -> result
(** Run the full flow against an aging-unaware baseline mapping. The
    returned mapping is always valid and its CPD never exceeds the
    baseline CPD. [Rotate] is the complete method: it also evaluates
    the identity (freeze) orientation and keeps whichever floorplan
    levels stress further, so Rotate is never worse than Freeze. *)

val solve_both :
  ?warm:warm -> ?params:params -> Design.t -> Mapping.t -> result * result
(** [(freeze, rotate)] sharing the Step-1 search and the freeze run —
    what Table I reports per benchmark, at roughly half the cost of
    two independent {!solve} calls. After Step 1 the Freeze and Rotate
    runs are one two-task batch on [Agingfp_util.Pool.get 2]: they run
    concurrently when a second core is free, else in order (Freeze
    first) on the calling domain. The pair is the same either way:
    the Freeze result equals [solve ~mode:Freeze]'s when no deadline
    is set. Under a deadline Freeze gets half of what Step 1 leaves
    and Rotate all of it: run concurrently, Rotate may use the whole
    remaining deadline; run in order, it gets what Freeze left. *)
