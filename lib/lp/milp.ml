let src = Logs.Src.create "agingfp.milp" ~doc:"Branch and bound MILP"

module Log = (val Logs.src_log src : Logs.LOG)
module Budget = Agingfp_util.Budget

type result = Feasible of Simplex.solution | Infeasible | Unknown

type params = {
  lp_params : Simplex.params;
  node_limit : int;
  integrality_tol : float;
  first_solution : bool;
  presolve : bool;
  warm_start : bool;
  budget : Budget.t;
  heuristics : bool;
}

let default_params =
  {
    lp_params = Simplex.default_params;
    node_limit = 2000;
    integrality_tol = 1e-6;
    first_solution = true;
    presolve = true;
    warm_start = true;
    budget = Budget.unlimited;
    heuristics = true;
  }

type stats = {
  presolve : Presolve.reductions;
  nodes : int;
  warm_solves : int;
  cold_solves : int;
  warm_fallbacks : int;
  lp_iterations : int;
  refactorizations : int;
  eta_updates : int;
  fill_in : int;
  drift_refreshes : int;
  dual_bound : float;
  gap : float;
  stop : Budget.stop_reason;
  cuts_separated : int;
  cuts_active : int;
  heuristic_incumbents : int;
}

let zero_stats =
  {
    presolve = Presolve.no_reductions;
    nodes = 0;
    warm_solves = 0;
    cold_solves = 0;
    warm_fallbacks = 0;
    lp_iterations = 0;
    refactorizations = 0;
    eta_updates = 0;
    fill_in = 0;
    drift_refreshes = 0;
    dual_bound = Float.nan;
    gap = 0.0;
    stop = Budget.Optimal;
    cuts_separated = 0;
    cuts_active = 0;
    heuristic_incumbents = 0;
  }

let worst_stop = Budget.worst

let add_stats a b =
  {
    presolve = Presolve.add_reductions a.presolve b.presolve;
    nodes = a.nodes + b.nodes;
    warm_solves = a.warm_solves + b.warm_solves;
    cold_solves = a.cold_solves + b.cold_solves;
    warm_fallbacks = a.warm_fallbacks + b.warm_fallbacks;
    lp_iterations = a.lp_iterations + b.lp_iterations;
    refactorizations = a.refactorizations + b.refactorizations;
    eta_updates = a.eta_updates + b.eta_updates;
    (* Fill is a footprint, not a flow: aggregate the peak. *)
    fill_in = max a.fill_in b.fill_in;
    drift_refreshes = a.drift_refreshes + b.drift_refreshes;
    (* Dual bounds of different models are not comparable; keep the
       most recent solve's (aggregation order is chronological). *)
    dual_bound = (if Float.is_nan b.dual_bound then a.dual_bound else b.dual_bound);
    (* The aggregate is only as certified as its loosest member. *)
    gap = Float.max a.gap b.gap;
    stop = worst_stop a.stop b.stop;
    cuts_separated = a.cuts_separated + b.cuts_separated;
    cuts_active = a.cuts_active + b.cuts_active;
    heuristic_incumbents = a.heuristic_incumbents + b.heuristic_incumbents;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d nodes, %d warm / %d cold LP solves (%d warm fallbacks), %d LP iterations, \
     gap %g (dual bound %g), stop %a; heuristics: %d incumbents; kernel: %d \
     refactorizations (%d drift), %d eta updates, peak fill %d; presolve: %a"
    s.nodes s.warm_solves s.cold_solves s.warm_fallbacks s.lp_iterations s.gap s.dual_bound
    Budget.pp_stop_reason s.stop s.heuristic_incumbents s.refactorizations
    s.drift_refreshes s.eta_updates s.fill_in Presolve.pp_reductions s.presolve

(* Cumulative counters across all solves since the last reset — the
   remap pipeline runs many MILPs/LPs per floorplan, and the CLI
   [--stats] flag and benches report the aggregate. A remap's Freeze
   and Rotate runs accumulate from two domains at once, hence the
   mutex. The aggregate keeps only what does not depend on the order
   solves finish in: the per-model [dual_bound] ("the most recent
   solve's") stays [nan] here. *)
let cum = ref zero_stats
let cum_mutex = Mutex.create ()

let with_cum f =
  Mutex.lock cum_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cum_mutex) f

let reset_cumulative () = with_cum (fun () -> cum := zero_stats)
let cumulative () = with_cum (fun () -> !cum)
let accumulate s =
  let s = { s with dual_bound = Float.nan } in
  with_cum (fun () -> cum := add_stats !cum s)

let note_lp_solve ?(warm_fallbacks = 0) ?(refactorizations = 0) ?(eta_updates = 0)
    ?(fill_in = 0) ?(drift_refreshes = 0) ~warm ~iterations () =
  accumulate
    {
      zero_stats with
      warm_solves = (if warm then 1 else 0);
      cold_solves = (if warm then 0 else 1);
      warm_fallbacks;
      lp_iterations = iterations;
      refactorizations;
      eta_updates;
      fill_in;
      drift_refreshes;
    }

let pp_result ppf = function
  | Feasible s -> Format.fprintf ppf "feasible (obj = %g)" s.objective
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unknown -> Format.pp_print_string ppf "unknown (budget exhausted)"

let solution_sign dir = match dir with Model.Minimize -> 1.0 | Model.Maximize -> -1.0

(* ---------- tree search ---------- *)

(* Strong-branching probes seed pseudocosts only this close to the
   root (deeper nodes inherit reliable averages from their ancestors'
   observations) and only for this many unreliable candidates per
   node — each probe costs two warm LP solves. *)
let strong_branch_depth = 2
let strong_branch_width = 4

(* Relative optimality gap of [primal] against [dual], both in
   minimize-sign space. [infinity] while nothing is proven (the root
   is still open), [0] once the tree is drained. *)
let rel_gap ~primal ~dual =
  if Float.is_finite dual then
    let scale = Float.max (Float.max (Float.abs primal) (Float.abs dual)) 1e-9 in
    Float.max 0.0 ((primal -. dual) /. scale)
  else if dual > 0.0 then 0.0
  else infinity

(* The search engine: an explicit {!Node_store} tree pumped on the
   calling domain. The presolved [model] is never mutated: the search
   owns a private model copy and one assembled solver state, whose
   warm basis carries from node to node.

   Soundness of the incumbent prune: a node whose inherited dual bound
   is not strictly better than the incumbent cannot contain a strictly
   better integer point, so closing it unexplored never changes the
   optimal objective — only the node count.

   Soundness of the reported gap: {!Node_store.dual_bound} is a valid
   bound on every integer point still reachable (open and in-flight
   subtrees), and every closed subtree is dominated by the incumbent;
   so [(primal - dual) / scale] bounds the incumbent's distance from
   the global optimum. *)
let tree_search ~params ~sign ~int_vars ~lp_params model =
  let n_vars = Model.num_vars model in
  let root_lb = Array.init n_vars (Model.var_lb model) in
  let root_ub = Array.init n_vars (Model.var_ub model) in
  let heur_found = ref 0 in
  let heur_on = params.heuristics && int_vars <> [] in
  let store = Node_store.create () in
  ignore
    (Node_store.add store ~parent:(-1) ~depth:0 ~bound:neg_infinity ~fixes:[]
       ~branch:None);
  let brancher = Brancher.create ~nvars:n_vars in
  let nodes = ref 0 in
  let incumbent = ref None in
  let halt = ref false in
  let budget_hit = ref false in
  let stop = ref Budget.Optimal in
  let note_stop r = stop := worst_stop !stop r in
  let give_up reason =
    budget_hit := true;
    note_stop reason;
    halt := true
  in
  (* [better_bound] compares in minimize-sign space (node bounds);
     [better] takes a raw model-space objective. Mixing the two
     double-applies [sign] and mis-prunes Maximize searches. *)
  let better_bound b =
    match !incumbent with
    | None -> true
    | Some (s : Simplex.solution) -> b < (sign *. s.objective) -. 1e-9
  in
  let better obj = better_bound (sign *. obj) in
  (* Pop the next node to expand. A node abandoned by a budget stop is
     deliberately never [finish]ed: its bound keeps anchoring the
     global dual bound, so an interrupted search never overstates what
     it proved. *)
  let rec take () =
    if !halt then None
    else
      match Node_store.take store with
      | Some n ->
        if Budget.expired params.budget then begin
          give_up (Budget.status params.budget);
          None
        end
        else if !nodes >= params.node_limit then begin
          give_up Budget.Node_limit;
          None
        end
        else if not (better_bound n.Node_store.bound) then begin
          (* Pruned by the incumbent: closed without LP work. *)
          Node_store.finish store;
          take ()
        end
        else begin
          incr nodes;
          Some n
        end
      | None -> None
  in
  let node_model = Model.copy model in
  let st = Simplex.assemble ~params:lp_params node_model in
  let solved_once = ref false in
  let applied = ref [] in
  (* Root primal heuristics (diving + feasibility pump) on the search's
     solver state, under a sliced budget. Outcomes have already passed
     Model.check_feasible; install whichever beat the incumbent. *)
  let run_root_heuristics (sol : Simplex.solution) =
    if heur_on && not (Budget.expired params.budget) then begin
      let hbudget =
        if Budget.is_unlimited params.budget then Budget.unlimited
        else Budget.slice params.budget ~fraction:Heuristics.budget_fraction
      in
      Simplex.set_budget st hbudget;
      let hres =
        Heuristics.run ~model:node_model ~st ~int_vars ~budget:hbudget ~relaxed:sol
      in
      Simplex.set_budget st lp_params.Simplex.budget;
      List.iter
        (fun (o : Heuristics.outcome) ->
          if better o.Heuristics.objective then begin
            incumbent :=
              Some
                {
                  Simplex.values = o.Heuristics.values;
                  objective = o.Heuristics.objective;
                  iterations = 0;
                };
            incr heur_found;
            Log.debug (fun k ->
                k "heuristic incumbent (%s): objective %g" o.Heuristics.source
                  o.Heuristics.objective);
            if params.first_solution then halt := true
          end)
        hres.Heuristics.found
    end
  in
  let enter (n : Node_store.node) =
    (* Reset whatever the previous node changed, then apply this
       node's path root-first so the deepest branching wins when a
       variable was branched on twice. *)
    List.iter
      (fun (v, _, _) ->
        Model.set_bounds node_model v ~lb:root_lb.(v) ~ub:root_ub.(v);
        Simplex.set_var_bounds st v ~lb:root_lb.(v) ~ub:root_ub.(v))
      !applied;
    List.iter
      (fun (v, lb, ub) ->
        Model.set_bounds node_model v ~lb ~ub;
        Simplex.set_var_bounds st v ~lb ~ub)
      (List.rev n.Node_store.fixes);
    applied := n.Node_store.fixes
  in
  (* Strong-branching probe: bound [v] one way, reoptimize from the
     node's basis, undo. Returns the sign-space objective
     degradation ([1e12] when the probe proves that child
     infeasible — the strongest possible split), or [None] when the
     probe LP could not finish; the bounds are restored either way
     and the next [enter]/reoptimize recovers from whatever basis
     the probe left behind. *)
  let probe ~(sol : Simplex.solution) v dir =
    let lb = Model.var_lb node_model v and ub = Model.var_ub node_model v in
    let x = sol.Simplex.values.(v) in
    (match dir with
    | Node_store.Down ->
      Simplex.set_var_bounds st v ~lb ~ub:(Float.of_int (int_of_float (floor x)))
    | Node_store.Up ->
      Simplex.set_var_bounds st v ~lb:(Float.of_int (int_of_float (ceil x))) ~ub);
    let status = Simplex.reoptimize st in
    Simplex.set_var_bounds st v ~lb ~ub;
    match status with
    | Simplex.Optimal s -> Some ((sign *. s.objective) -. (sign *. sol.objective))
    | Simplex.Infeasible -> Some 1e12
    | Simplex.Unbounded | Simplex.Iteration_limit | Simplex.Deadline
    | Simplex.Fault _ -> None
  in
  let process (n : Node_store.node) =
    enter n;
    let status =
      if (not !solved_once) || not params.warm_start then Simplex.solve_state st
      else Simplex.reoptimize st
    in
    solved_once := true;
    match status with
    | Simplex.Infeasible -> Node_store.finish store
    | Simplex.Unbounded ->
      Log.warn (fun k -> k "unbounded LP relaxation during branch & bound");
      Node_store.finish store
    | Simplex.Iteration_limit -> give_up Budget.Iteration_limit
    | Simplex.Deadline -> give_up Budget.Deadline
    | Simplex.Fault msg ->
      (* A faulted solver state cannot be trusted for siblings; stop
         the whole search and keep the incumbent found so far. *)
      give_up (Budget.Fault msg)
    | Simplex.Optimal sol -> (
      (* In feasibility mode (first_solution) the incumbent IS the
         goal: an incumbent from the root pump/dive ends the search. *)
      if n.Node_store.depth = 0 then run_root_heuristics sol;
      let obj = sign *. sol.objective in
      let candidates =
        Brancher.fractional ~integrality_tol:params.integrality_tol int_vars
          sol.Simplex.values
      in
      (* This node's own relaxation is one free pseudocost
         observation of the branching that created it. *)
      (match n.Node_store.branch with
      | Some b when Float.is_finite n.Node_store.bound ->
        Brancher.observe brancher ~var:b.Node_store.var ~dir:b.Node_store.dir
          ~frac:b.Node_store.frac ~delta:(obj -. n.Node_store.bound)
      | _ -> ());
      if not (better sol.objective) then Node_store.finish store
      else
        match candidates with
        | [] ->
          incumbent := Some { sol with Simplex.values = Array.copy sol.values };
          if params.first_solution then halt := true;
          Node_store.finish store
        | _ :: _ -> (
          (* Probes pay off only when the dual bound matters: a
             feasibility dive (first_solution) skips them. *)
          let probes =
            if params.first_solution || n.Node_store.depth >= strong_branch_depth then []
            else
              List.filteri
                (fun i _ -> i < strong_branch_width)
                (List.filter
                   (fun (v, _) -> Brancher.unreliable brancher ~var:v)
                   candidates)
          in
          List.iter
            (fun (v, x) ->
              let obs dir frac =
                match probe ~sol v dir with
                | Some delta -> Brancher.observe brancher ~var:v ~dir ~frac ~delta
                | None -> ()
              in
              let fdown = x -. floor x in
              (* Up first: each probe leaves the basis the next one
                 re-optimizes from. *)
              obs Node_store.Up (1.0 -. fdown);
              obs Node_store.Down fdown)
            probes;
          match Brancher.select brancher candidates with
          | None -> Node_store.finish store (* unreachable: candidates <> [] *)
          | Some v ->
            let x = sol.Simplex.values.(v) in
            let lb = Model.var_lb node_model v and ub = Model.var_ub node_model v in
            let fdown = x -. floor x in
            let child dir fix frac =
              ignore
                (Node_store.add store ~parent:n.Node_store.id
                   ~depth:(n.Node_store.depth + 1) ~bound:obj
                   ~fixes:(fix :: n.Node_store.fixes)
                   ~branch:(Some { Node_store.var = v; dir; frac }))
            in
            let down_fix = (v, lb, Float.of_int (int_of_float (floor x))) in
            let up_fix = (v, Float.of_int (int_of_float (ceil x)), ub) in
            (* Far child first, near child second: the near child
               gets the larger id, so the LIFO plunge explores the
               child nearest the relaxed value first. *)
            if fdown > 0.5 then begin
              child Node_store.Down down_fix fdown;
              child Node_store.Up up_fix (1.0 -. fdown)
            end
            else begin
              child Node_store.Up up_fix (1.0 -. fdown);
              child Node_store.Down down_fix fdown
            end;
            Node_store.finish store))
  in
  let rec loop () =
    match take () with
    | None -> ()
    | Some n ->
      (try process n with Faults.Injected where -> give_up (Budget.Fault where));
      loop ()
  in
  loop ();
  (* The frontier left behind is exactly what was not proven: its
     minimum is the global dual bound. A drained tree proves the
     incumbent optimal (or the model infeasible). *)
  let frontier = Node_store.dual_bound store in
  let dual_sign =
    match !incumbent with
    | Some (s : Simplex.solution) when (not (Float.is_finite frontier)) && frontier > 0.0
      ->
      sign *. s.objective
    | _ -> frontier
  in
  let gap =
    match !incumbent with
    | None -> if (not (Float.is_finite dual_sign)) && dual_sign > 0.0 then 0.0 else infinity
    | Some s -> rel_gap ~primal:(sign *. s.objective) ~dual:dual_sign
  in
  let kernel = Simplex.state_stats st in
  ( !incumbent,
    !budget_hit,
    {
      zero_stats with
      warm_solves = kernel.Simplex.warm_solves;
      cold_solves = kernel.Simplex.cold_solves;
      warm_fallbacks = kernel.Simplex.warm_fallbacks;
      lp_iterations = kernel.Simplex.lp_iterations;
      refactorizations = kernel.Simplex.refactorizations;
      eta_updates = kernel.Simplex.eta_updates;
      fill_in = kernel.Simplex.fill_in;
      drift_refreshes = kernel.Simplex.drift_refreshes;
      nodes = !nodes;
      stop = !stop;
      dual_bound = sign *. dual_sign;
      gap;
      heuristic_incumbents = !heur_found;
    } )

(* The presolve step of a solve: [Error msg] when presolve proves
   [model0] has no feasible point, [Ok None] when presolve is off. *)
let presolve_model ~(params : params) model0 =
  if params.presolve then
    match
      Presolve.run ~budget:params.budget ~integrality_tol:params.integrality_tol model0
    with
    | Presolve.Proven_infeasible msg ->
      Log.debug (fun k -> k "presolve proved infeasibility: %s" msg);
      Error msg
    | Presolve.Reduced p -> Ok (Some p)
  else Ok None

(* The answer for a model presolve refuted: no LP ran. *)
let refuted () =
  accumulate zero_stats;
  (Infeasible, zero_stats)

(* The search step: branch & bound on the presolved model [pre] (on a
   copy of [model0] when presolve is off), lifted back to [model0]'s
   variable space. Never mutates [pre], so a caller may search it
   more than once. *)
let search_with_stats ~params model0 pre =
  let dir, obj0 = Model.objective model0 in
  let sign = solution_sign dir in
  let model, reductions =
    match pre with
    | Some p -> (Presolve.reduced p, Presolve.reductions p)
    | None -> (Model.copy model0, Presolve.no_reductions)
  in
  let int_vars = Model.integer_vars model in
  let lp_params =
    if Budget.is_unlimited params.budget then params.lp_params
    else { params.lp_params with Simplex.budget = params.budget }
  in
  let incumbent, budget_hit, search =
    tree_search ~params ~sign ~int_vars ~lp_params model
  in
  let stats = { search with presolve = reductions } in
  accumulate stats;
  let result =
    match incumbent with
    | Some sol ->
      (* Lift back to the original variable space and round every
         integer variable to an exact integral value — a relaxation
         solution within integrality_tol (e.g. 0.9999993) must not
         leak fractional binaries downstream. *)
      let values =
        match pre with Some p -> Presolve.postsolve p sol.values | None -> sol.values
      in
      List.iter (fun v -> values.(v) <- Float.round values.(v)) (Model.integer_vars model0);
      let objective = Expr.eval (fun v -> values.(v)) obj0 in
      Feasible { values; objective; iterations = sol.iterations }
    | None -> if budget_hit then Unknown else Infeasible
  in
  (result, stats)

let solve_with_stats ?(params = default_params) model0 =
  match presolve_model ~params model0 with
  | Error _ -> refuted ()
  | Ok pre -> search_with_stats ~params model0 pre

let solve ?params model0 = fst (solve_with_stats ?params model0)

(* Relax-and-fix once [model0] has survived presolve as [pre0]: the
   root LP, the pre-mapped search and, when that fails, the fallback
   search of [pre0] itself. *)
let relax_and_fix_presolved ~threshold ~params model0 pre0 =
  (* The root relaxation is counted both in the returned per-call stats
     (folded in below) and in the global cumulative counters (via
     note_lp_solve), so the two accountings agree. *)
  let root_stats ~iterations = { zero_stats with cold_solves = 1; lp_iterations = iterations } in
  let lp_params =
    if Budget.is_unlimited params.budget then params.lp_params
    else { params.lp_params with Simplex.budget = params.budget }
  in
  let root_status =
    try Simplex.solve ~params:lp_params model0
    with Faults.Injected where -> Simplex.Fault where
  in
  match root_status with
  | Simplex.Infeasible ->
    note_lp_solve ~warm:false ~iterations:0 ();
    (Infeasible, root_stats ~iterations:0)
  | Simplex.Unbounded | Simplex.Iteration_limit ->
    note_lp_solve ~warm:false ~iterations:0 ();
    (Unknown, { (root_stats ~iterations:0) with gap = infinity })
  | Simplex.Deadline ->
    note_lp_solve ~warm:false ~iterations:0 ();
    (Unknown, { (root_stats ~iterations:0) with stop = Budget.Deadline; gap = infinity })
  | Simplex.Fault msg ->
    note_lp_solve ~warm:false ~iterations:0 ();
    (Unknown, { (root_stats ~iterations:0) with stop = Budget.Fault msg; gap = infinity })
  | Simplex.Optimal relaxed ->
    note_lp_solve ~warm:false ~iterations:relaxed.iterations ();
    let int_vars = Model.integer_vars model0 in
    let fixed = Model.copy model0 in
    let nfixed = ref 0 in
    List.iter
      (fun v ->
        if relaxed.values.(v) > threshold && Model.var_ub fixed v >= 1.0 then begin
          Model.fix_var fixed v 1.0;
          incr nfixed
        end)
      int_vars;
    Log.debug (fun k ->
        k "relax-and-fix: pre-mapped %d of %d binaries" !nfixed (List.length int_vars));
    let validate = function
      | Feasible sol as r ->
        (match Model.check_feasible model0 (fun v -> sol.values.(v)) with
        | Ok () -> r
        | Error msg ->
          Log.err (fun k -> k "relax-and-fix produced invalid solution: %s" msg);
          Unknown)
      | r -> r
    in
    let root = root_stats ~iterations:relaxed.iterations in
    (match solve_with_stats ~params fixed with
    | Feasible sol, stats -> (validate (Feasible sol), add_stats root stats)
    | (Infeasible | Unknown), stats ->
      (* The aggressive pre-mapping can over-constrain; retry without it. *)
      let r, stats' = search_with_stats ~params model0 pre0 in
      (validate r, add_stats root (add_stats stats stats')))

let relax_and_fix_with_stats ?(threshold = 0.95) ?(params = default_params) model0 =
  (* Presolve the unfixed model first. A pre-mapping of a model with no
     integer point has none either, so a refuted model costs one
     presolve: no root LP and no pre-mapped search. *)
  match presolve_model ~params model0 with
  | Error _ -> refuted ()
  | Ok pre0 -> relax_and_fix_presolved ~threshold ~params model0 pre0

let relax_and_fix ?threshold ?params model0 =
  fst (relax_and_fix_with_stats ?threshold ?params model0)
