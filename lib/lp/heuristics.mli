(** Root-node primal heuristics for the MILP core: diving and the
    Fischetti–Glover–Lodi feasibility pump.

    Both heuristics run on the warm simplex state the tree search
    itself will use, under a strict sub-budget, before node 1 — their
    job is to seed the incumbent so that gap termination and
    incumbent pruning are live from the first bound comparison.

    The state is borrowed and restored: diving undoes every bound it
    fixed, the pump restores the model objective via
    {!Simplex.reset_cost}. The basis is left wherever the last
    heuristic LP finished (callers re-optimize anyway). Candidate
    incumbents are reported only after passing
    {!Model.check_feasible} on the presolved model — a heuristic
    failure degrades into "found nothing", never into an infeasible
    incumbent. *)

val budget_fraction : float
(** Share of the solve budget the caller should slice off for the
    heuristic phase (consumed by {!Milp}). *)

type outcome = {
  values : float array; (** integral on the integer variables *)
  objective : float;    (** model objective at [values] *)
  source : string;      (** ["diving"] or ["pump"] *)
}

type result = {
  found : outcome list; (** audit-checked candidates, in run order *)
  lps : int;            (** heuristic LP solves consumed *)
}

val run :
  model:Model.t ->
  st:Simplex.state ->
  int_vars:int list ->
  budget:Agingfp_util.Budget.t ->
  relaxed:Simplex.solution ->
  result
(** Run diving, then the pump, from the root LP optimum [relaxed].
    [model] is the presolved model (used for feasibility checking and
    the objective); [budget] is the heuristic sub-budget — the caller
    slices it from the solve budget and restores the state's budget
    afterwards. *)
