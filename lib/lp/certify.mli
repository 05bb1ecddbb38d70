(** Exact, independent certification of solver output.

    PR 1's warm-started simplex shipped with soundness bugs that could
    certify an infeasible point as optimal; this module is the trust
    layer that catches that class of failure. Every check re-derives
    its verdict from the {e original} model using
    {!Agingfp_util.Rat} exact dyadic-rational arithmetic — float
    round-off in the solver cannot hide a violation, and the checker
    shares no code with the simplex.

    Tolerances are still honoured (the solver only promises residuals
    within [tol]), but the comparison [residual <= tol] itself is
    exact: a residual of [tol + 2^-80] is rejected. *)

type verdict =
  | Certified
  | Rejected of string list
      (** Every violated bound/row/integrality/objective check, in
          model order. *)
  | Unsupported of string
      (** The claim could not be checked (e.g. an infeasible verdict
          with no certificate available). *)

val solution :
  ?tol:float -> ?relaxation:bool -> Model.t -> Simplex.solution -> verdict
(** Certify a claimed-feasible point against [model]: finite values,
    variable bounds, integrality of integer variables (skipped when
    [relaxation] is [true] — LP relaxations of MILPs are legitimately
    fractional), every constraint row, and agreement of the reported
    objective with the exact re-evaluation. [tol] defaults to the
    solver's feasibility tolerance [1e-6]. *)

val result : ?tol:float -> Model.t -> Milp.result -> verdict
(** Certify a {!Milp.result}. [Feasible] delegates to {!solution};
    [Infeasible] is accepted only when a single-row bound certificate
    proves it (see {!find_bound_certificate}), otherwise
    [Unsupported]; [Unknown] is [Unsupported]. *)

val farkas : Model.t -> float array -> verdict
(** [farkas model y] checks a Farkas infeasibility certificate: with
    one multiplier per row ([y.(i) >= 0] for [Le] rows, [<= 0] for
    [Ge], free for [Eq]), the aggregated inequality
    [sum_i y_i (a_i . x) <= sum_i y_i b_i] is valid for every feasible
    [x]; if the exact infimum of the left side over the variable box
    exceeds the right side, the model is proven infeasible.
    [Certified] means the certificate is valid (the model is
    infeasible); [Rejected] lists why the certificate fails to prove
    it. All arithmetic is exact. *)

val find_bound_certificate : Model.t -> int option
(** Scan for a single row that the variable box alone proves
    unsatisfiable — the one-multiplier Farkas special case. Exact; no
    tolerance is applied, so a hit is an unconditional infeasibility
    proof. *)

val pp_verdict : Format.formatter -> verdict -> unit
