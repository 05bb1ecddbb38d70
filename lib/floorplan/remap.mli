(** Algorithm 1: the aging-aware re-mapping design flow.

    Pipeline (paper §V):
    + Step 1 — binary search for the accumulated-stress lower bound
      [ST_target], executing the delay-unaware relaxation of (3);
    + Step 2.1 — critical-path constraint generation ({!Rotation});
    + Step 2.2 — path wire-length budgets ({!Paths});
    + Step 2.3 — iterate the two-step MILP, relaxing [ST_target] by Δ
      until a floorplan exists {e and} the exact re-computed CPD does
      not exceed the original CPD.

    Two solve shapes, picked by problem size
    ([monolithic_var_limit]): a monolithic MILP over all contexts
    (the paper's formulation verbatim), or a per-context solve
    against residual per-PE stress budgets — the scaling
    decomposition of DESIGN.md §5.

    Every MILP is the paper's two-step solve of Eq. (3)
    ({!Agingfp_lp.Milp.relax_and_fix}): LP relaxation, pre-mapping of
    binaries [>= 0.95], then branch & bound with the search of
    [params.milp] — by default the first feasible floorplan. *)

open Agingfp_cgrra

type step1_method =
  | Greedy_pack     (** best-fit-decreasing feasibility probe (fast) *)
  | Milp_relax      (** the paper's two-step MILP on the delay-unaware model *)

type params = {
  seed : int;
  encoding : Ilp_model.encoding;
  objective : Ilp_model.objective;
  step1 : step1_method;
  candidate_params : Candidates.params;
  path_params : Paths.params;
  milp : Agingfp_lp.Milp.params;
  bisect_iters : int;
  delta_steps : int;   (** Δ = (ST_up − lower bound) / delta_steps *)
  max_outer : int;     (** bound on Δ-relaxation iterations *)
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
    bound, an LP-free greedy packer, and finally the unmodified
    baseline mapping (always audit-clean, since its budget is the
    baseline's own maximum stress). A rung is accepted only if its
    floorplan passes the independent {!Audit}; the rung that produced
    the returned mapping and every downgrade on the way are reported
    in the {!result}. *)

type rung =
  | Full_milp      (** LP + structured rounding + two-step MILP, full node budget *)
  | Relax_and_fix  (** same, branch & bound node-capped hard *)
  | Lp_rounding    (** LP-guided structured rounding only *)
  | Heuristic      (** best-fit-decreasing packing; no LP machinery at all *)
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
(** The delay-unaware [ST_target] lower bound (Algorithm 1 line 2).
    When [budget] expires mid-bisection the current feasible upper
    end is returned — looser, never wrong. *)

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
