open Agingfp_cgrra
module Analysis = Agingfp_timing.Analysis
module Milp = Agingfp_lp.Milp
module Simplex = Agingfp_lp.Simplex
module Analyze = Agingfp_lp.Analyze
module Certify = Agingfp_lp.Certify
module Budget = Agingfp_util.Budget
module Pool = Agingfp_util.Pool
module Invariant = Agingfp_util.Invariant
module Faults = Agingfp_lp.Faults

let src = Logs.Src.create "agingfp.remap" ~doc:"Aging-aware remapping"

module Log = (val Logs.src_log src : Logs.LOG)

type step1_method = Greedy_pack | Milp_relax

type params = {
  seed : int;
  encoding : Ilp_model.encoding;
  objective : Ilp_model.objective;
  step1 : step1_method;
  candidate_params : Candidates.params;
  path_params : Paths.params;
  milp : Milp.params;
  bisect_iters : int;
  delta_steps : int;
  max_outer : int;
  monolithic_var_limit : int;
  refine : bool;
  refine_params : Refine.params;
  certify : bool;
  deadline_s : float option;
}

let default_params =
  {
    seed = 20200310;
    encoding = Ilp_model.Hybrid;
    objective = Ilp_model.Min_displacement;
    step1 = Greedy_pack;
    candidate_params = Candidates.default_params;
    path_params = Paths.default_params;
    milp = { Milp.default_params with node_limit = 120 };
    bisect_iters = 8;
    delta_steps = 16;
    max_outer = 24;
    monolithic_var_limit = 1200;
    refine = true;
    refine_params = Refine.default_params;
    certify = false;
    deadline_s = None;
  }

(* ---------- degradation ladder ---------- *)

type rung = Full_milp | Relax_and_fix | Lp_rounding | Heuristic | Baseline

let rung_to_string = function
  | Full_milp -> "full-milp"
  | Relax_and_fix -> "relax-and-fix"
  | Lp_rounding -> "lp-rounding"
  | Heuristic -> "heuristic"
  | Baseline -> "baseline"

let pp_rung ppf r = Format.pp_print_string ppf (rung_to_string r)

type degradation_step = {
  rung : rung;
  reason : Budget.stop_reason;
  detail : string;
}

let pp_degradation_step ppf s =
  Format.fprintf ppf "%a: %a — %s" pp_rung s.rung Budget.pp_stop_reason s.reason
    s.detail

type result = {
  mapping : Mapping.t;
  st_target : float;
  st_lower_bound : float;
  st_up : float;
  outer_iterations : int;
  baseline_cpd_ns : float;
  new_cpd_ns : float;
  improved : bool;
  audit : Audit.report;
  rung : rung;
  degradation : degradation_step list;
  gap : float;
  dual_bound : float;
  rung_stats : (rung * Milp.stats) list;
}

(* ---------- solution certification (Lp.Certify) ---------- *)

type certification_stats = {
  lp_checked : int;
  milp_checked : int;
  rejected : int;
  failures : string list;
}

let no_certification =
  { lp_checked = 0; milp_checked = 0; rejected = 0; failures = [] }

(* Certification tallies are fed from [solve_both]'s two modes at
   once. *)
let cert = ref no_certification
let cert_mutex = Mutex.create ()

let with_cert f =
  Mutex.lock cert_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cert_mutex) f

let reset_certification () = with_cert (fun () -> cert := no_certification)
let certification () = with_cert (fun () -> !cert)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let note_certificate ~kind verdict =
  with_cert (fun () ->
      let c = !cert in
      let c =
        match kind with
        | `Lp -> { c with lp_checked = c.lp_checked + 1 }
        | `Milp -> { c with milp_checked = c.milp_checked + 1 }
      in
      match verdict with
      | Certify.Certified | Certify.Unsupported _ -> cert := c
      | Certify.Rejected msgs ->
        let failure = String.concat "; " msgs in
        Log.err (fun k -> k "solution certificate rejected: %s" failure);
        cert :=
          { c with rejected = c.rejected + 1; failures = take 8 (failure :: c.failures) })

let empty_plan design : Rotation.plan = Array.make (Design.num_contexts design) []

let frozen_stress design (plan : Rotation.plan) =
  let acc = Array.make (Fabric.num_pes (Design.fabric design)) 0.0 in
  Array.iteri
    (fun ctx pins ->
      List.iter
        (fun (op, pe) -> acc.(pe) <- acc.(pe) +. Stress.op_stress design ~ctx ~op)
        pins)
    plan;
  acc

(* ---------- greedy feasibility probe / structured rounding ---------- *)

(* Best-fit-decreasing packing of the unfrozen ops of [ctx] under the
   residual budgets, optionally guided by LP values. Mutates
   [committed] and [assignment] on success only. Polls [budget] every
   few ops: the packer used to be the largest uninterruptible unit in
   the pipeline and the main source of deadline overshoot. An expired
   budget reads as packing failure, which every caller already treats
   as "stop and degrade". *)
let pack_context ?(budget = Budget.unlimited) design ~candidates ~st_target ~committed
    ~lp_value ctx assignment =
  let dfg = Design.context design ctx in
  let n = Dfg.num_ops dfg in
  let npes = Array.length committed in
  (* Working copy of the residual budgets; committed is only updated
     on success. occupant maps PE -> op (-1 free, -2 frozen pin). *)
  let resid = Array.copy committed in
  let occupant = Array.make npes (-1) in
  for op = 0 to n - 1 do
    if Candidates.is_frozen candidates ~ctx ~op then
      occupant.(List.hd (Candidates.get candidates ~ctx ~op)) <- -2
  done;
  let order = Array.init n (fun i -> i) in
  let stress op = Stress.op_stress design ~ctx ~op in
  Array.sort (fun a b -> Float.compare (stress b) (stress a)) order;
  let local = Array.make n (-1) in
  let fits op pe = resid.(pe) +. stress op <= st_target +. 1e-9 in
  let place op pe =
    local.(op) <- pe;
    occupant.(pe) <- op;
    resid.(pe) <- resid.(pe) +. stress op
  in
  let unplace op pe =
    local.(op) <- -1;
    occupant.(pe) <- -1;
    resid.(pe) <- resid.(pe) -. stress op
  in
  let try_direct op =
    let best = ref (-1) in
    let best_key = ref (neg_infinity, neg_infinity) in
    List.iter
      (fun pe ->
        if occupant.(pe) = -1 && fits op pe then begin
          (* Prefer high LP value, then low residual load. *)
          let key = (lp_value op pe, -.resid.(pe)) in
          if compare key !best_key > 0 then begin
            best := pe;
            best_key := key
          end
        end)
      (Candidates.get candidates ~ctx ~op);
    if !best < 0 then false
    else begin
      place op !best;
      true
    end
  in
  (* One-level ejection chain: free one of [op]'s candidate PEs by
     relocating its (lighter, non-frozen) occupant to another of that
     occupant's own candidates. Essential at high fabric utilization,
     where the stress-aware candidate sets overlap heavily. *)
  let try_eject op =
    let rec scan = function
      | [] -> false
      | pe :: rest ->
        let victim = occupant.(pe) in
        if victim < 0 then scan rest
        else begin
          unplace victim pe;
          (* Reserve the freed PE so the victim cannot re-take it. *)
          occupant.(pe) <- -3;
          if not (fits op pe) then begin
            occupant.(pe) <- -1;
            place victim pe;
            scan rest
          end
          else if try_direct victim then begin
            occupant.(pe) <- -1;
            place op pe;
            true
          end
          else begin
            occupant.(pe) <- -1;
            place victim pe;
            scan rest
          end
        end
    in
    scan (Candidates.get candidates ~ctx ~op)
  in
  let ok = ref true in
  let placed = ref 0 in
  Array.iter
    (fun op ->
      if !ok && not (Candidates.is_frozen candidates ~ctx ~op) then begin
        incr placed;
        if !placed land 7 = 0 && Budget.expired budget then ok := false
        else if not (try_direct op || try_eject op) then ok := false
      end)
    order;
  if not !ok then false
  else begin
    for op = 0 to n - 1 do
      if Candidates.is_frozen candidates ~ctx ~op then
        assignment.(op) <- List.hd (Candidates.get candidates ~ctx ~op)
      else assignment.(op) <- local.(op)
    done;
    for op = 0 to n - 1 do
      if not (Candidates.is_frozen candidates ~ctx ~op) then
        committed.(assignment.(op)) <- committed.(assignment.(op)) +. stress op
    done;
    true
  end

(* ---------- warm-started solver cache ---------- *)

(* ST_target and the committed loads only enter formulation (3)
   through the stress-budget RHS, so across Algorithm 1's Δ-relaxation
   attempts (and the ST_target bisection of Step 1's Milp_relax probe)
   each instance is built and assembled once; later attempts rebudget
   the rows in place and warm-restart the simplex from the previous
   basis. *)
type solver_cache = {
  mutable mono : (Ilp_model.instance * Simplex.state) option;
  per_ctx : (int, Ilp_model.instance * Simplex.state) Hashtbl.t;
}

let new_cache () = { mono = None; per_ctx = Hashtbl.create 8 }

(* Warm state carried across repeated solves of the {e same}
   (design, baseline, params) triple — the server's re-submission
   path. One solver cache per mode, because Freeze and Rotate build
   structurally different instances (the reference geometry differs).
   Reuse is sound even when budget pressure made an earlier build see
   a different candidate set: a cached instance is only ever
   rebudgeted through [set_st_target] (consistent with its own
   structure), stale LP guidance merely steers the rounding, and every
   floorplan still passes [Mapping.validate] + the independent audit.
   A warm value must not be shared by two concurrent solves — simplex
   states belong to one domain at a time. *)
type warm = {
  freeze_cache : solver_cache ref;
  rotate_cache : solver_cache ref;
}

let new_warm () =
  { freeze_cache = ref (new_cache ()); rotate_cache = ref (new_cache ()) }

(* In debug builds every freshly built Eq. (3) instance is linted
   before its first solve; errors surface loudly, advisory findings go
   to the debug log. *)
let lint_instance inst =
  match Logs.Src.level src with
  | Some Logs.Debug ->
    List.iter
      (fun (d : Analyze.diagnostic) ->
        match d.Analyze.severity with
        | Analyze.Error -> Log.err (fun k -> k "lint: %a" Analyze.pp_diagnostic d)
        | Analyze.Warning | Analyze.Info ->
          Log.debug (fun k -> k "lint: %a" Analyze.pp_diagnostic d))
      (Analyze.lint (Ilp_model.model inst))
  | _ -> ()

(* Rebudget a cached instance + state and re-solve its LP relaxation
   warm; on a cache miss, [build] makes the instance and the first
   solve runs cold. Feeds the global Milp counters either way, and
   reports the same delta to [stats_note] so the caller can attribute
   the work to a ladder rung. When [certify] is set, any optimal point
   is re-verified in exact arithmetic against the (rebudgeted) model
   before it is trusted. *)
let cached_lp_solve ~certify ~budget ~stats_note ~get ~set ~build ~st_target ~committed =
  let inst, st, fresh =
    match get () with
    | Some (inst, st) ->
      Ilp_model.set_st_target inst ~st_target ~committed;
      List.iter
        (fun (pe, row) -> Simplex.set_rhs st row (st_target -. committed.(pe)))
        (Ilp_model.stress_budget_rows inst);
      (inst, st, false)
    | None ->
      let inst = build () in
      lint_instance inst;
      let st = Simplex.assemble (Ilp_model.model inst) in
      set (inst, st);
      (inst, st, true)
  in
  (* The cached state may have been assembled under an earlier (or no)
     budget; every solve runs under the caller's current slice. *)
  Simplex.set_budget st budget;
  let s0 = Simplex.state_stats st in
  let status = if fresh then Simplex.solve_state st else Simplex.reoptimize st in
  let s1 = Simplex.state_stats st in
  let warm = s1.Simplex.warm_solves > s0.Simplex.warm_solves in
  let iterations = s1.Simplex.lp_iterations - s0.Simplex.lp_iterations in
  let warm_fallbacks = s1.Simplex.warm_fallbacks - s0.Simplex.warm_fallbacks in
  Milp.note_lp_solve ~warm ~iterations ~warm_fallbacks
    ~refactorizations:(s1.Simplex.refactorizations - s0.Simplex.refactorizations)
    ~eta_updates:(s1.Simplex.eta_updates - s0.Simplex.eta_updates)
    ~fill_in:s1.Simplex.fill_in
    ~drift_refreshes:(s1.Simplex.drift_refreshes - s0.Simplex.drift_refreshes) ();
  stats_note ~milp:false
    {
      Milp.zero_stats with
      Milp.warm_solves = (if warm then 1 else 0);
      cold_solves = (if warm then 0 else 1);
      warm_fallbacks;
      lp_iterations = iterations;
      refactorizations = s1.Simplex.refactorizations - s0.Simplex.refactorizations;
      eta_updates = s1.Simplex.eta_updates - s0.Simplex.eta_updates;
      fill_in = s1.Simplex.fill_in;
      drift_refreshes = s1.Simplex.drift_refreshes - s0.Simplex.drift_refreshes;
    };
  (match status with
  | Simplex.Optimal sol when certify ->
    (* [set_st_target] keeps the instance's model current, so the
       relaxation (integrality waived) is checked against exactly the
       constraints the solver claims to have satisfied. *)
    note_certificate ~kind:`Lp
      (Certify.solution ~relaxation:true (Ilp_model.model inst) sol)
  | _ -> ());
  (inst, status)

(* Why an LP relaxation was unusable, as a degradation reason.
   [Unbounded] on formulation (3) — bounded binaries — can only mean a
   broken model or a corrupted solver state, so it is a fault, not a
   budget condition. *)
let lp_cut_reason = function
  | Simplex.Iteration_limit -> Budget.Iteration_limit
  | Simplex.Deadline -> Budget.Deadline
  | Simplex.Fault msg -> Budget.Fault msg
  | Simplex.Unbounded -> Budget.Fault "unbounded LP relaxation"
  | Simplex.Infeasible | Simplex.Optimal _ -> Budget.Optimal

(* The MILP machinery a ladder rung is allowed to use; [None] means no
   branch & bound at all. *)
let milp_params_for params ~budget = function
  | Full_milp -> Some { params.milp with Milp.budget }
  | Relax_and_fix ->
    (* The cheap-MILP rung: same two-step scheme, hard-capped search. *)
    Some
      { params.milp with Milp.node_limit = min params.milp.Milp.node_limit 16; budget }
  | Lp_rounding | Heuristic | Baseline -> None

(* Exact wire-length check of the monitored paths for one context. *)
let paths_ok design mapping monitored ctx =
  List.for_all
    (fun (b : Paths.budgeted) ->
      Analysis.wire_length design mapping b.Paths.path <= b.Paths.wire_budget)
    monitored.(ctx)

(* ---------- per-context MILP solve ---------- *)

let solve_context params design baseline ~candidates ~monitored ~st_target ~committed
    ~cache ~budget ~machinery ~note ~stats_note ctx current =
  (* Fast path: LP relaxation + structured rounding; fall back to the
     paper's two-step MILP when rounding misses or breaks a path
     budget. The ladder's [machinery] caps what this is allowed to
     cost: [Heuristic] skips the LP entirely, [Lp_rounding] skips the
     branch & bound. *)
  let try_rounding lp_value =
    let committed' = Array.copy committed in
    let dfg = Design.context design ctx in
    let assignment = Array.make (Dfg.num_ops dfg) (-1) in
    if pack_context ~budget design ~candidates ~st_target ~committed:committed' ~lp_value
         ctx assignment
    then begin
      let arrays =
        Array.init (Design.num_contexts design) (fun c ->
            if c = ctx then assignment else Mapping.context_array current c)
      in
      let mapping = Mapping.of_arrays arrays in
      if paths_ok design mapping monitored ctx then begin
        Array.blit committed' 0 committed 0 (Array.length committed);
        Some mapping
      end
      else None
    end
    else None
  in
  if machinery = Heuristic then try_rounding (fun _ _ -> 0.0)
  else begin
    let inst, lp_status =
      cached_lp_solve ~certify:params.certify ~budget ~stats_note
        ~get:(fun () -> Hashtbl.find_opt cache.per_ctx ctx)
        ~set:(fun entry -> Hashtbl.replace cache.per_ctx ctx entry)
        ~build:(fun () ->
          Ilp_model.build ~encoding:params.encoding ~objective:params.objective design
            ~baseline ~st_target ~candidates ~monitored ~contexts:[ ctx ] ~committed)
        ~st_target ~committed
    in
    let lp_model = Ilp_model.model inst in
    match lp_status with
    | Simplex.Infeasible ->
      (* The residual budget cannot host this context at all. *)
      None
    | (Simplex.Unbounded | Simplex.Iteration_limit | Simplex.Deadline | Simplex.Fault _)
      as s ->
      (* No usable relaxation — not the same thing as infeasible.
         Record the downgrade and try the unguided packer, which needs
         no LP at all. *)
      note (lp_cut_reason s)
        (Format.asprintf "per-context LP relaxation unusable (%a); unguided rounding"
           Simplex.pp_status s);
      try_rounding (fun _ _ -> 0.0)
    | Simplex.Optimal sol -> (
      (* Guide the rounding pass with the fractional relaxation. *)
      let lp_value op pe =
        match Ilp_model.var inst ~ctx ~op ~pe with
        | Some v -> sol.Agingfp_lp.Simplex.values.(v)
        | None -> 0.0
      in
      match try_rounding lp_value with
      | Some mapping -> Some mapping
      | None when Ilp_model.num_binaries inst > 2400 ->
        (* On very large per-context models a failed attempt must stay
           cheap (Algorithm 1 simply relaxes ST_target by Δ and retries,
           and the refinement pass recovers leveling quality afterwards).
           With presolve + warm-started nodes the B&B fallback is cheap
           enough to double the eligibility threshold of the cold-solve
           era. *)
        None
      | None -> (
        match milp_params_for params ~budget machinery with
        | None -> None
        | Some milp_params -> (
          (* Branch & bound re-solves an LP per node; keep the
             per-context fallback budget small — Δ-relaxation plus
             refinement recover quality more cheaply than deep
             search. *)
          let fallback_params =
            { milp_params with Milp.node_limit = min milp_params.Milp.node_limit 24 }
          in
          let milp_result, milp_stats =
            Milp.relax_and_fix_with_stats ~params:fallback_params lp_model
          in
          stats_note ~milp:true milp_stats;
          if params.certify then
            note_certificate ~kind:`Milp (Certify.result lp_model milp_result);
          (match (milp_result, milp_stats.Milp.stop) with
          | Milp.Feasible _, _ | _, Budget.Optimal -> ()
          | _, reason -> note reason "per-context branch & bound cut short");
          match milp_result with
          | Milp.Feasible sol ->
            let mapping =
              Ilp_model.extract inst
                ~values:(fun v -> sol.Agingfp_lp.Simplex.values.(v))
                current
            in
            if not (paths_ok design mapping monitored ctx) then None
            else begin
              (* Commit the assigned stress. *)
              let dfg = Design.context design ctx in
              for op = 0 to Dfg.num_ops dfg - 1 do
                if not (Candidates.is_frozen candidates ~ctx ~op) then begin
                  let pe = Mapping.pe_of mapping ~ctx ~op in
                  committed.(pe) <- committed.(pe) +. Stress.op_stress design ~ctx ~op
                end
              done;
              Some mapping
            end
          | Milp.Infeasible | Milp.Unknown -> None)))
  end

(* ---------- whole-design attempt at one ST_target ---------- *)

let context_order design candidates =
  let order = Array.init (Design.num_contexts design) (fun i -> i) in
  let weight ctx =
    let dfg = Design.context design ctx in
    let acc = ref 0.0 in
    for op = 0 to Dfg.num_ops dfg - 1 do
      if not (Candidates.is_frozen candidates ~ctx ~op) then
        acc := !acc +. Stress.op_stress design ~ctx ~op
    done;
    !acc
  in
  let weights = Array.map weight order in
  Array.sort (fun a b -> Float.compare weights.(b) weights.(a)) order;
  order

let estimate_binaries design candidates =
  let total = ref 0 in
  for ctx = 0 to Design.num_contexts design - 1 do
    let dfg = Design.context design ctx in
    for op = 0 to Dfg.num_ops dfg - 1 do
      if not (Candidates.is_frozen candidates ~ctx ~op) then
        total := !total + List.length (Candidates.get candidates ~ctx ~op)
    done
  done;
  !total

let attempt ?cache ?(budget = Budget.unlimited) ?(machinery = Full_milp)
    ?(note = fun _ _ -> ()) ?(stats_note = fun ~milp:_ _ -> ()) params design baseline
    ~candidates ~monitored ~frozen ~st_target =
  let cache = match cache with Some c -> c | None -> new_cache () in
  let monolithic = estimate_binaries design candidates <= params.monolithic_var_limit in
  let committed = frozen_stress design frozen in
  let all_contexts = List.init (Design.num_contexts design) (fun i -> i) in
  let all_paths_ok mapping =
    List.for_all (fun ctx -> paths_ok design mapping monitored ctx) all_contexts
  in
  (* Sequential LP-guided rounding over every context; shared by both
     strategies as the fast integerization path. A failed context is
     promoted to the front and the pass retried — sequential packing
     order, not joint infeasibility, is the usual culprit. *)
  let round_pass lp_value order =
    let committed' = Array.copy committed in
    let arrays =
      Array.init (Design.num_contexts design) (fun c -> Mapping.context_array baseline c)
    in
    let failed = ref (-1) in
    Array.iter
      (fun ctx ->
        if !failed < 0 then
          if
            Budget.expired budget
            || not
                 (pack_context ~budget design ~candidates ~st_target ~committed:committed'
                    ~lp_value:(lp_value ctx) ctx arrays.(ctx))
          then failed := ctx)
      order;
    if !failed >= 0 then Error !failed
    else begin
      let mapping = Mapping.of_arrays arrays in
      if all_paths_ok mapping then Ok mapping else Error (-1)
    end
  in
  let round_all lp_value =
    let base_order = context_order design candidates in
    let rec retry order tries =
      match round_pass lp_value order with
      | Ok mapping -> Some mapping
      | Error failed ->
        if tries = 0 || failed < 0 || Budget.expired budget then None
        else begin
          let promoted =
            Array.of_list
              (failed :: List.filter (fun c -> c <> failed) (Array.to_list order))
          in
          retry promoted (tries - 1)
        end
    in
    retry base_order 2
  in
  if machinery = Heuristic then
    (* LP-free rung: pure best-fit-decreasing packing over every
       context — immune to any fault or budget pressure in the LP
       layer. *)
    round_all (fun _ _ _ -> 0.0)
  else if monolithic then (
    let inst, lp_status =
      cached_lp_solve ~certify:params.certify ~budget ~stats_note
        ~get:(fun () -> cache.mono)
        ~set:(fun entry -> cache.mono <- Some entry)
        ~build:(fun () ->
          Ilp_model.build ~encoding:params.encoding ~objective:params.objective design
            ~baseline ~st_target ~candidates ~monitored ~contexts:all_contexts ~committed)
        ~st_target ~committed
    in
    let lp_model = Ilp_model.model inst in
    match lp_status with
    | Simplex.Infeasible -> None
    | (Simplex.Unbounded | Simplex.Iteration_limit | Simplex.Deadline | Simplex.Fault _)
      as s ->
      (* Historically a silent fallback; the downgrade to unguided
         rounding is now logged and lands in the degradation trail. *)
      note (lp_cut_reason s)
        (Format.asprintf "monolithic LP relaxation unusable (%a); unguided rounding"
           Simplex.pp_status s);
      round_all (fun _ _ _ -> 0.0)
    | Simplex.Optimal sol -> (
      let lp_value ctx op pe =
        match Ilp_model.var inst ~ctx ~op ~pe with
        | Some v -> sol.Agingfp_lp.Simplex.values.(v)
        | None -> 0.0
      in
      match round_all lp_value with
      | Some mapping -> Some mapping
      | None -> (
        match milp_params_for params ~budget machinery with
        | None -> None
        | Some milp_params -> (
          let milp_result, milp_stats =
            Milp.relax_and_fix_with_stats ~params:milp_params lp_model
          in
          stats_note ~milp:true milp_stats;
          if params.certify then
            note_certificate ~kind:`Milp (Certify.result lp_model milp_result);
          (match (milp_result, milp_stats.Milp.stop) with
          | Milp.Feasible _, _ | _, Budget.Optimal -> ()
          | _, reason -> note reason "monolithic branch & bound cut short");
          match milp_result with
          | Milp.Feasible sol ->
            let mapping =
              Ilp_model.extract inst
                ~values:(fun v -> sol.Agingfp_lp.Simplex.values.(v))
                baseline
            in
            if all_paths_ok mapping then Some mapping else None
          | Milp.Infeasible | Milp.Unknown -> None))))
  else begin
    let pass order =
      let committed' = Array.copy committed in
      let current = ref baseline in
      let failed = ref (-1) in
      Array.iter
        (fun ctx ->
          if !failed < 0 then begin
            if Budget.expired budget then failed := ctx
            else
              match
                solve_context params design baseline ~candidates ~monitored ~st_target
                  ~committed:committed' ~cache ~budget ~machinery ~note ~stats_note ctx
                  !current
              with
              | Some mapping -> current := mapping
              | None -> failed := ctx
          end)
        order;
      if !failed < 0 then Ok !current else Error !failed
    in
    let rec retry order tries =
      match pass order with
      | Ok mapping -> Some mapping
      | Error failed ->
        if tries = 0 || Budget.expired budget then None
        else begin
          let promoted =
            Array.of_list
              (failed :: List.filter (fun c -> c <> failed) (Array.to_list order))
          in
          retry promoted (tries - 1)
        end
    in
    retry (context_order design candidates) 2
  end

(* ---------- Step 1: ST_target lower bound ---------- *)

let step1_lower_bound ?(params = default_params) ?(budget = Budget.unlimited) design
    baseline =
  let st_up = Stress.max_accumulated design baseline in
  let st_low = Stress.mean_accumulated design baseline in
  if st_up -. st_low < 1e-9 then st_up
  else begin
    let frozen = empty_plan design in
    let monitored = Array.make (Design.num_contexts design) [] in
    (* Step 1 is delay-unaware: every PE is a legal target, so the
       feasibility probe must not inherit the delay-driven candidate
       cap (capped, overlapping sets make high-utilization instances
       spuriously infeasible and collapse the bound to ST_up). *)
    let step1_cand_params =
      { params.candidate_params with Candidates.max_candidates = 0 }
    in
    let candidates =
      Candidates.build ~budget ~params:step1_cand_params design baseline ~frozen
        ~monitored
    in
    (* One warm-started solver cache across the whole bisection — only
       the stress-budget RHS moves between probes. *)
    let milp_relax_cache = new_cache () in
    let feasible st =
      match params.step1 with
      | Greedy_pack ->
        let committed = Array.make (Fabric.num_pes (Design.fabric design)) 0.0 in
        let ok = ref true in
        for ctx = 0 to Design.num_contexts design - 1 do
          if !ok then begin
            let dfg = Design.context design ctx in
            let assignment = Array.make (Dfg.num_ops dfg) (-1) in
            if
              not
                (pack_context ~budget design ~candidates ~st_target:st ~committed
                   ~lp_value:(fun _ _ -> 0.0) ctx assignment)
            then ok := false
          end
        done;
        !ok
      | Milp_relax ->
        attempt ~cache:milp_relax_cache ~budget params design baseline ~candidates
          ~monitored ~frozen ~st_target:st
        <> None
    in
    (* Invariant: lo infeasible, hi feasible. Stopping the bisection
       early (budget) keeps that invariant, so the bound returned is
       merely looser, never wrong. *)
    if feasible st_low then st_low
    else begin
      let lo = ref st_low and hi = ref st_up in
      for _ = 1 to params.bisect_iters do
        if not (Budget.expired budget) then begin
          let mid = 0.5 *. (!lo +. !hi) in
          if feasible mid then hi := mid else lo := mid
        end
      done;
      !hi
    end
  end

(* One-stop construction of the full Eq. (3) instance the flow would
   solve first, at the Step-1 ST_target lower bound — shared by the
   CLI's export-lp and lint commands. *)
let build_formulation ?(params = default_params) ~mode design baseline =
  let reference, frozen = Rotation.reference ~seed:params.seed mode design baseline in
  let monitored = Paths.monitored ~params:params.path_params design baseline in
  let candidates =
    Candidates.build ~params:params.candidate_params design reference ~frozen ~monitored
  in
  let committed = frozen_stress design frozen in
  (* Same budget floor as the main loop's first attempt: below the
     stress the frozen pins alone commit, the stress rows of their PEs
     are infeasible by bounds before the solver even starts. *)
  let lb = step1_lower_bound ~params design baseline in
  let st_target = max lb (Array.fold_left max 0.0 committed) in
  let inst =
    Ilp_model.build ~encoding:params.encoding ~objective:params.objective design
      ~baseline:reference ~st_target ~candidates ~monitored
      ~contexts:(List.init (Design.num_contexts design) (fun i -> i))
      ~committed
  in
  (inst, st_target)

(* ---------- Algorithm 1 main loop ---------- *)

(* Two stop reasons are "the same kind of downgrade" for trail
   deduplication — a 24-attempt Δ loop under a fault storm must not
   flood the trail with one entry per attempt. *)
let same_reason_class a b =
  match (a, b) with
  | Budget.Optimal, Budget.Optimal
  | Budget.Deadline, Budget.Deadline
  | Budget.Node_limit, Budget.Node_limit
  | Budget.Iteration_limit, Budget.Iteration_limit
  | Budget.Fault _, Budget.Fault _ -> true
  | _ -> false

let solve_with_plan ?cache params design baseline ~budget ~baseline_cpd ~st_up ~lb
    ~reference ~frozen =
  let monitored = Paths.monitored ~params:params.path_params design baseline in
  let candidates =
    Candidates.build ~budget ~params:params.candidate_params design reference ~frozen
      ~monitored
  in
  let floor_stress = Array.fold_left max 0.0 (frozen_stress design frozen) in
  let delta = max ((st_up -. lb) /. float_of_int params.delta_steps) (0.01 *. st_up +. 1e-9) in
  let start = max lb floor_stress in
  let trail = ref [] in
  (* Per-rung solver-work accounting and the bound/gap evidence of the
     branch & bound runs. Every LP relaxation and every B&B inside the
     ladder reports its stats delta here, so per-rung sums match the
     process-wide {!Milp.cumulative} deltas of the ladder — Step 1 and
     concurrent unrelated solves excluded. [gap]/[dual_bound] only
     listen to real B&B runs ([milp:true]): a bare LP relaxation
     proves nothing about integer optimality. *)
  let milp_trail = ref [] in
  let gap_obs = ref nan in
  let dual_obs = ref nan in
  let observe_stats machinery ~milp s =
    (match !milp_trail with
    | (r, acc) :: rest when r = machinery ->
      milp_trail := (r, Milp.add_stats acc s) :: rest
    | rest -> milp_trail := (machinery, s) :: rest);
    if milp then begin
      if Float.is_finite s.Milp.gap then
        gap_obs :=
          (if Float.is_nan !gap_obs then s.Milp.gap else Float.max !gap_obs s.Milp.gap);
      if Float.is_finite s.Milp.dual_bound then dual_obs := s.Milp.dual_bound
    end
  in
  let note_step rung reason detail =
    if
      not
        (List.exists
           (fun (s : degradation_step) -> s.rung = rung && same_reason_class s.reason reason)
           !trail)
    then begin
      Log.warn (fun k ->
          k "%s: degradation [%a] %a — %s" (Design.name design) pp_rung rung
            Budget.pp_stop_reason reason detail);
      trail := !trail @ [ { rung; reason; detail } ]
    end
  in
  (* Δ-relaxation attempts differ only in ST_target, i.e. in the
     stress-budget RHS: one cache serves the entire ladder warm. After
     an injected fault the cached simplex states are suspect and the
     cache is dropped wholesale. A caller-provided ref (from a {!warm}
     value) additionally carries the assembled states across whole
     solves; the poisoning reset then propagates to the holder. *)
  let cache = match cache with Some c -> c | None -> ref (new_cache ()) in
  (* One ladder rung: the Δ-relaxation loop restricted to [machinery],
     bounded by [rbudget]. [Error Budget.Optimal] means the loop ran
     to natural exhaustion — weaker LP-based machinery cannot do
     better, so the ladder jumps to the LP-free rung. Any other
     [Error] is a budget/fault cut that the next (cheaper) rung may
     survive. *)
  let run_rung machinery rbudget =
    let note reason detail = note_step machinery reason detail in
    (* A candidate floorplan wins only if it validates and keeps the
       CPD. *)
    let acceptable mapping =
      match Mapping.validate design mapping with
      | Error msg ->
        (* A solver bug must not end the search; relax and retry. *)
        Log.err (fun k -> k "invalid remapped floorplan: %s" msg);
        None
      | Ok () ->
        let new_cpd = Analysis.cpd design mapping in
        if new_cpd <= baseline_cpd +. 1e-9 then Some new_cpd
        else begin
          Log.debug (fun k ->
              k "CPD check failed (%.3f > %.3f); relaxing ST_target" new_cpd baseline_cpd);
          None
        end
    in
    let rec loop st iter =
      if iter > params.max_outer then Error Budget.Optimal
      else if Budget.expired rbudget then Error (Budget.status rbudget)
      else begin
        Log.debug (fun k ->
            k "%s: [%a] attempt %d with ST_target = %.3f (up %.3f)" (Design.name design)
              pp_rung machinery iter st st_up);
        let cut = ref Budget.Optimal in
        let note_cut reason detail =
          cut := Budget.worst !cut reason;
          note reason detail
        in
        match
          attempt ~cache:!cache ~budget:rbudget ~machinery ~note:note_cut
            ~stats_note:(observe_stats machinery) params design reference ~candidates
            ~monitored ~frozen ~st_target:st
        with
        | Some mapping -> (
          match acceptable mapping with
          | Some new_cpd -> Ok (mapping, st, iter, new_cpd)
          | None -> loop (st +. delta) (iter + 1))
        | None -> (
          match !cut with
          | Budget.Fault _ as f ->
            (* The machinery of this rung is actively misbehaving;
               descending beats hammering it for max_outer attempts. *)
            Error f
          | _ -> loop (st +. delta) (iter + 1))
      end
    in
    try loop start 1
    with Faults.Injected where ->
      (* The exception may have unwound through a half-pivoted simplex
         state; nothing in the cache can be trusted warm any more. *)
      cache := new_cache ();
      Error (Budget.Fault where)
  in
  (* Refine + audit a rung's floorplan. A floorplan that fails its
     audit is discarded and the ladder descends — the contract is
     audited-or-baseline, never an unaudited "success". *)
  let finish rung (mapping, st, iters, new_cpd) =
    let mapping, new_cpd =
      if not params.refine || Budget.expired budget then (mapping, new_cpd)
      else begin
        (* Greedy post-pass: shave the hotspot further under the same
           timing guards. Never worse than the MILP floorplan. Runs
           under the whole solve's budget: a rung that succeeds just
           before the deadline gets a correspondingly short pass. *)
        let refined, stats =
          Refine.improve ~params:params.refine_params ~budget design ~baseline_cpd
            ~frozen ~monitored mapping
        in
        if stats.Refine.moves_accepted = 0 then (mapping, new_cpd)
        else (refined, Analysis.cpd design refined)
      end
    in
    let audit = Audit.run design ~baseline_cpd ~st_target:st ~frozen ~monitored mapping in
    if Audit.ok audit then
      Some
        {
          mapping;
          st_target = st;
          st_lower_bound = lb;
          st_up;
          outer_iterations = iters;
          baseline_cpd_ns = baseline_cpd;
          new_cpd_ns = new_cpd;
          improved = true;
          audit;
          rung;
          degradation = !trail;
          gap = !gap_obs;
          dual_bound = !dual_obs;
          rung_stats = List.rev !milp_trail;
        }
    else begin
      Log.err (fun k -> k "%s: %a" (Design.name design) Audit.pp audit);
      note_step rung (Budget.Fault "audit rejected floorplan")
        "independent audit rejected the rung's floorplan";
      None
    end
  in
  let rec descend = function
    | [] -> None
    | machinery :: rest -> (
      let rungs_left = List.length rest + 1 in
      let rbudget =
        if Budget.is_unlimited budget then budget
        else Budget.slice budget ~fraction:(1.0 /. float_of_int rungs_left)
      in
      match run_rung machinery rbudget with
      | Ok success -> (
        match finish machinery success with
        | Some result -> Some result
        | None -> descend rest)
      | Error Budget.Optimal ->
        note_step machinery Budget.Optimal
          "no delay-clean floorplan at any Δ-relaxed ST_target";
        (* Natural failure: every weaker LP-based rung solves a subset
           of this rung's search, so only the LP-free packer — immune
           to a systematically lying LP layer — is still worth a
           try. *)
        if machinery = Heuristic then None else descend [ Heuristic ]
      | Error reason ->
        note_step machinery reason "rung cut short; descending";
        descend rest)
  in
  match descend [ Full_milp; Relax_and_fix; Lp_rounding; Heuristic ] with
  | Some result -> result
  | None ->
    Log.warn (fun k ->
        k "%s: no delay-clean aging-aware floorplan found; keeping baseline"
          (Design.name design));
    (* The baseline carries no pins (in Rotate mode its ops do not sit
       at the re-oriented positions) and its budget is ST_up, so its
       audit holds by construction — the ladder's floor really is
       unconditional. A failed baseline audit is a pipeline bug; it is
       reported loudly and carried in the result for the CLI/tests to
       act on. *)
    let audit =
      Audit.run design ~baseline_cpd ~st_target:st_up ~frozen:(empty_plan design)
        ~monitored baseline
    in
    if not (Audit.ok audit) then
      Log.err (fun k -> k "%s: %a" (Design.name design) Audit.pp audit);
    {
      mapping = baseline;
      st_target = st_up;
      st_lower_bound = lb;
      st_up;
      outer_iterations = params.max_outer;
      baseline_cpd_ns = baseline_cpd;
      new_cpd_ns = baseline_cpd;
      improved = false;
      audit;
      rung = Baseline;
      degradation = !trail;
      gap = !gap_obs;
      dual_bound = !dual_obs;
      rung_stats = List.rev !milp_trail;
    }

let run_mode ?warm params design baseline ~budget ~baseline_cpd ~st_up ~lb m =
  (* The reference floorplan: the baseline itself (Freeze), or each
     context rigidly re-oriented (Rotate) — identical path delays
     either way. All candidate/displacement geometry is relative to
     the reference; CPD acceptance is always against the baseline. *)
  let reference, frozen = Rotation.reference ~seed:params.seed m design baseline in
  let cache =
    Option.map
      (fun w ->
        match m with
        | Rotation.Freeze -> w.freeze_cache
        | Rotation.Rotate -> w.rotate_cache)
      warm
  in
  solve_with_plan ?cache params design baseline ~budget ~baseline_cpd ~st_up ~lb
    ~reference ~frozen

let budget_of_params params =
  match params.deadline_s with
  | None -> Budget.unlimited
  | Some d ->
    (* Reserve an epilogue margin for the mandatory final audit and
       result assembly, which run after the last budget poll: the
       working deadline is shaved by 5% (capped at 50 ms, floored at
       2 ms) so the wall-clock the caller observes stays within the
       deadline it asked for: a measured p99 was 0.5006 s against a
       0.500 s deadline without this. *)
    let margin = Float.max 0.002 (Float.min (0.05 *. d) 0.05) in
    Budget.create ~deadline_s:(Float.max (d /. 2.0) (d -. margin)) ()

(* Fraction of the overall deadline granted to the Step-1 bisection;
   the ladder gets whatever it leaves. *)
let step1_fraction = 0.15

let solve_both ?warm ?(params = default_params) design baseline =
  (match Mapping.validate design baseline with
  | Ok () -> ()
  | Error msg -> Invariant.invalid ~where:"Remap.solve_both" "invalid baseline: %s" msg);
  let budget = budget_of_params params in
  let baseline_cpd = Analysis.cpd design baseline in
  let st_up = Stress.max_accumulated design baseline in
  let lb =
    step1_lower_bound ~params
      ~budget:(Budget.slice budget ~fraction:step1_fraction)
      design baseline
  in
  (* The two modes share nothing but Step 1's bound, so they run as
     one two-task batch: concurrently when a second domain is free,
     otherwise one after the other on this domain, Freeze first. Both
     slices are cut now, so the budgets do not depend on the order:
     Freeze keeps half of what is left, as when it ran first, and
     Rotate may use all of it. Each mode owns its own solver cache and
     every run is deterministic, so the pair is the same either way. *)
  let modes =
    [|
      (Rotation.Freeze, Budget.slice budget ~fraction:0.5); (Rotation.Rotate, budget);
    |]
  in
  let results =
    Pool.map (Pool.get 2)
      (fun (m, budget) ->
        run_mode ?warm params design baseline ~budget ~baseline_cpd ~st_up ~lb m)
      modes
  in
  let frozen_res = results.(0) and rotated = results.(1) in
  (* The complete method: rotation widens the search space, but a
     particular re-orientation can still lose to the identity
     orientation; keep whichever floorplan levels stress further
     (Table I's Rotate column is never worse than Freeze). *)
  let score r = Stress.max_accumulated design r.mapping in
  let rotate_best =
    if score rotated <= score frozen_res +. 1e-9 then rotated else frozen_res
  in
  (frozen_res, rotate_best)

let solve ?warm ?(params = default_params) ~mode design baseline =
  match mode with
  | Rotation.Freeze ->
    (match Mapping.validate design baseline with
    | Ok () -> ()
    | Error msg -> Invariant.invalid ~where:"Remap.solve" "invalid baseline: %s" msg);
    let budget = budget_of_params params in
    let baseline_cpd = Analysis.cpd design baseline in
    let st_up = Stress.max_accumulated design baseline in
    let lb =
      step1_lower_bound ~params
        ~budget:(Budget.slice budget ~fraction:step1_fraction)
        design baseline
    in
    run_mode ?warm params design baseline ~budget ~baseline_cpd ~st_up ~lb
      Rotation.Freeze
  | Rotation.Rotate -> snd (solve_both ?warm ~params design baseline)
