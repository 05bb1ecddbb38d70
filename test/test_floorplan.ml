(* Tests for the paper's contribution: rotation, path budgets,
   candidate pruning, the MILP model for formulation (3), Step 1,
   Algorithm 1 end-to-end invariants, the naive strawman and the
   primary ILP. *)

open Agingfp_cgrra
module Placer = Agingfp_place.Placer
module Analysis = Agingfp_timing.Analysis
module Mttf = Agingfp_aging.Mttf
module Rotation = Agingfp_floorplan.Rotation
module Paths = Agingfp_floorplan.Paths
module Candidates = Agingfp_floorplan.Candidates
module Ilp_model = Agingfp_floorplan.Ilp_model
module Remap = Agingfp_floorplan.Remap
module Naive = Agingfp_floorplan.Naive
module Primary_ilp = Agingfp_floorplan.Primary_ilp
module Refine = Agingfp_floorplan.Refine
module Related = Agingfp_floorplan.Related
module Lifetime = Agingfp_floorplan.Lifetime
module Mttf_mod = Agingfp_aging.Mttf
module Simplex = Agingfp_lp.Simplex
module Milp = Agingfp_lp.Milp
module Audit = Agingfp_floorplan.Audit

let tiny_placed () =
  let design = Benchmarks.tiny () in
  (design, Placer.aging_unaware design)

let bench_placed name =
  let design = Benchmarks.generate (Option.get (Benchmarks.find name)) in
  (design, Placer.aging_unaware design)

(* ---------- rotation ---------- *)

let test_orientation_counts_rule () =
  (* C <= 8: all distinct; C = 16: exactly twice each; C = 12: 1..2. *)
  Alcotest.(check (pair int int)) "C=4" (0, 1)
    (Rotation.allowed_orientation_counts ~contexts:4);
  Alcotest.(check (pair int int)) "C=8" (0, 1)
    (Rotation.allowed_orientation_counts ~contexts:8);
  Alcotest.(check (pair int int)) "C=16" (2, 2)
    (Rotation.allowed_orientation_counts ~contexts:16);
  Alcotest.(check (pair int int)) "C=12" (1, 2)
    (Rotation.allowed_orientation_counts ~contexts:12)

let test_freeze_plan_pins_original () =
  let design, baseline = tiny_placed () in
  let plan = Rotation.freeze_plan design baseline in
  Array.iteri
    (fun ctx pins ->
      List.iter
        (fun (op, pe) ->
          Alcotest.(check int) "original PE" (Mapping.pe_of baseline ~ctx ~op) pe)
        pins)
    plan

let test_freeze_plan_covers_critical_ops () =
  let design, baseline = tiny_placed () in
  let plan = Rotation.freeze_plan design baseline in
  for ctx = 0 to Design.num_contexts design - 1 do
    let crit = Rotation.critical_ops design baseline ~ctx in
    Alcotest.(check int) "all critical ops pinned" (List.length crit)
      (List.length plan.(ctx))
  done

let test_rotate_reference_valid_and_cpd_preserving () =
  let design, baseline = tiny_placed () in
  let reference, _pins = Rotation.rotate_reference design baseline in
  Alcotest.(check bool) "valid" true (Mapping.validate design reference = Ok ());
  Alcotest.(check (float 1e-9)) "identical CPD" (Analysis.cpd design baseline)
    (Analysis.cpd design reference);
  (* Per-context CPDs preserved too (rigid transform). *)
  for ctx = 0 to Design.num_contexts design - 1 do
    Alcotest.(check (float 1e-9)) "ctx cpd"
      (Analysis.context_cpd design baseline ctx)
      (Analysis.context_cpd design reference ctx)
  done

let test_rotate_pins_match_reference () =
  let design, baseline = tiny_placed () in
  let reference, pins = Rotation.rotate_reference design baseline in
  Array.iteri
    (fun ctx ctx_pins ->
      List.iter
        (fun (op, pe) ->
          Alcotest.(check int) "pin = reference position"
            (Mapping.pe_of reference ~ctx ~op) pe)
        ctx_pins)
    pins

let test_rotate_reduces_cp_overlap () =
  (* The greedy selection should not increase max pin stacking vs the
     freeze plan on a corner-packed baseline. *)
  let design, baseline = bench_placed "B10" in
  let stack plan =
    let acc = Array.make (Fabric.num_pes (Design.fabric design)) 0 in
    Array.iter (fun pins -> List.iter (fun (_, pe) -> acc.(pe) <- acc.(pe) + 1) pins) plan;
    Array.fold_left max 0 acc
  in
  let freeze = Rotation.freeze_plan design baseline in
  let _, rotated = Rotation.rotate_reference design baseline in
  Alcotest.(check bool) "overlap not worse" true (stack rotated <= stack freeze)

(* ---------- paths ---------- *)

let test_budgets_cover_baseline () =
  let design, baseline = tiny_placed () in
  let monitored = Paths.monitored design baseline in
  Array.iter
    (fun budgeted ->
      List.iter
        (fun (b : Paths.budgeted) ->
          Alcotest.(check bool) "baseline within budget" true
            (b.Paths.baseline_wire <= b.Paths.wire_budget);
          Alcotest.(check bool) "slack non-negative" true (Paths.slack b >= 0))
        budgeted)
    monitored

let test_critical_path_slack_zero () =
  (* The slack of a path achieving the design CPD is (near) zero in
     wire-length units. *)
  let design, baseline = tiny_placed () in
  let cpd = Analysis.cpd design baseline in
  let monitored = Paths.monitored design baseline in
  let found = ref false in
  Array.iter
    (fun budgeted ->
      List.iter
        (fun (b : Paths.budgeted) ->
          if abs_float (b.Paths.path.Analysis.delay_ns -. cpd) < 1e-9 then begin
            found := true;
            Alcotest.(check bool) "critical slack < 1 pitch" true (Paths.slack b <= 1)
          end)
        budgeted)
    monitored;
  Alcotest.(check bool) "found the critical path" true !found

let test_budget_respects_eq5 () =
  (* Recompute Eq. (5) by hand for every monitored path. *)
  let design, baseline = tiny_placed () in
  let chars = Design.chars design in
  let cpd = Analysis.cpd design baseline in
  let monitored = Paths.monitored design baseline in
  Array.iter
    (fun budgeted ->
      List.iter
        (fun (b : Paths.budgeted) ->
          let pe_sum = Analysis.pe_delay_sum design b.Paths.path in
          let expected =
            int_of_float (floor (((cpd -. pe_sum) /. chars.Chars.unit_wire_delay_ns) +. 1e-9))
          in
          Alcotest.(check int) "Eq. 5" (max expected b.Paths.baseline_wire)
            b.Paths.wire_budget)
        budgeted)
    monitored

(* ---------- candidates ---------- *)

let build_candidates design baseline mode =
  let reference, frozen = Rotation.reference mode design baseline in
  let monitored = Paths.monitored design baseline in
  (Candidates.build design reference ~frozen ~monitored, reference, frozen, monitored)

let test_candidates_frozen_singleton () =
  let design, baseline = tiny_placed () in
  let cands, _, frozen, _ = build_candidates design baseline Rotation.Freeze in
  Array.iteri
    (fun ctx pins ->
      List.iter
        (fun (op, pe) ->
          Alcotest.(check bool) "frozen" true (Candidates.is_frozen cands ~ctx ~op);
          Alcotest.(check (list int)) "singleton" [ pe ] (Candidates.get cands ~ctx ~op))
        pins)
    frozen

let test_candidates_contain_reference_position () =
  let design, baseline = tiny_placed () in
  let cands, reference, _, _ = build_candidates design baseline Rotation.Rotate in
  for ctx = 0 to Design.num_contexts design - 1 do
    let dfg = Design.context design ctx in
    for op = 0 to Dfg.num_ops dfg - 1 do
      if not (Candidates.is_frozen cands ~ctx ~op) then begin
        let set = Candidates.get cands ~ctx ~op in
        Alcotest.(check bool) "non-empty" true (set <> []);
        let home = Mapping.pe_of reference ~ctx ~op in
        (* Home position included unless a pin claimed it. *)
        let pinned_pes =
          List.concat_map (fun pins -> List.map snd pins)
            [ (Rotation.freeze_plan design reference).(ctx) ]
        in
        ignore pinned_pes;
        Alcotest.(check bool) "home or fallback" true
          (List.mem home set || List.length set >= 1)
      end
    done
  done

let test_candidates_capped () =
  let design, baseline = bench_placed "B10" in
  let params = { Candidates.default_params with max_candidates = 6 } in
  let reference, frozen = Rotation.reference Rotation.Freeze design baseline in
  let monitored = Paths.monitored design baseline in
  let cands = Candidates.build ~params design reference ~frozen ~monitored in
  for ctx = 0 to Design.num_contexts design - 1 do
    let dfg = Design.context design ctx in
    for op = 0 to Dfg.num_ops dfg - 1 do
      if not (Candidates.is_frozen cands ~ctx ~op) then begin
        (* The cap may be exceeded only by force-included pin-adjacent
           PEs; with Freeze pins sit at their original spots, so allow
           a small margin. *)
        Alcotest.(check bool) "roughly capped" true
          (List.length (Candidates.get cands ~ctx ~op) <= 6 + 13)
      end
    done
  done

let test_candidates_distinct () =
  let design, baseline = tiny_placed () in
  let cands, _, _, _ = build_candidates design baseline Rotation.Freeze in
  for ctx = 0 to Design.num_contexts design - 1 do
    let dfg = Design.context design ctx in
    for op = 0 to Dfg.num_ops dfg - 1 do
      let set = Candidates.get cands ~ctx ~op in
      Alcotest.(check int) "no duplicates"
        (List.length (List.sort_uniq Int.compare set))
        (List.length set)
    done
  done

(* ---------- ILP model ---------- *)

let test_model_feasible_at_st_up () =
  let design, baseline = tiny_placed () in
  let cands, reference, _, monitored = build_candidates design baseline Rotation.Freeze in
  let st_up = Stress.max_accumulated design baseline in
  let committed = Array.make (Fabric.num_pes (Design.fabric design)) 0.0 in
  (* Commit the frozen pins' stress, as Remap does. *)
  Array.iteri
    (fun ctx pins ->
      List.iter
        (fun (op, pe) -> committed.(pe) <- committed.(pe) +. Stress.op_stress design ~ctx ~op)
        pins)
    (Rotation.freeze_plan design baseline);
  let contexts = List.init (Design.num_contexts design) (fun i -> i) in
  let inst =
    Ilp_model.build design ~baseline:reference ~st_target:st_up ~candidates:cands
      ~monitored ~contexts ~committed
  in
  match Simplex.solve (Ilp_model.model inst) with
  | Simplex.Optimal _ -> ()
  | st -> Alcotest.failf "expected feasible at ST_up, got %a" Simplex.pp_status st

let test_model_infeasible_below_floor () =
  (* Below the per-op stress floor no assignment can exist. *)
  let design, baseline = tiny_placed () in
  let cands, reference, _, monitored = build_candidates design baseline Rotation.Freeze in
  let committed = Array.make (Fabric.num_pes (Design.fabric design)) 0.0 in
  let contexts = List.init (Design.num_contexts design) (fun i -> i) in
  let inst =
    Ilp_model.build design ~baseline:reference ~st_target:1e-6 ~candidates:cands
      ~monitored ~contexts ~committed
  in
  match Simplex.solve (Ilp_model.model inst) with
  | Simplex.Infeasible -> ()
  | st -> Alcotest.failf "expected infeasible, got %a" Simplex.pp_status st

let test_model_extract_valid () =
  let design, baseline = tiny_placed () in
  let cands, reference, _, monitored = build_candidates design baseline Rotation.Freeze in
  let st_up = Stress.max_accumulated design baseline in
  let committed = Array.make (Fabric.num_pes (Design.fabric design)) 0.0 in
  Array.iteri
    (fun ctx pins ->
      List.iter
        (fun (op, pe) -> committed.(pe) <- committed.(pe) +. Stress.op_stress design ~ctx ~op)
        pins)
    (Rotation.freeze_plan design baseline);
  let contexts = List.init (Design.num_contexts design) (fun i -> i) in
  let inst =
    Ilp_model.build design ~baseline:reference ~st_target:st_up ~candidates:cands
      ~monitored ~contexts ~committed
  in
  match Agingfp_lp.Milp.relax_and_fix (Ilp_model.model inst) with
  | Agingfp_lp.Milp.Feasible sol ->
    let mapping =
      Ilp_model.extract inst
        ~values:(fun v -> sol.Agingfp_lp.Simplex.values.(v))
        baseline
    in
    Alcotest.(check bool) "valid mapping" true (Mapping.validate design mapping = Ok ())
  | r -> Alcotest.failf "expected feasible, got %a" Agingfp_lp.Milp.pp_result r

(* ---------- Step 1 ---------- *)

let test_step1_between_mean_and_max () =
  let design, baseline = tiny_placed () in
  let lb = Remap.step1_lower_bound design baseline in
  Alcotest.(check bool) "lb >= mean" true
    (lb >= Stress.mean_accumulated design baseline -. 1e-9);
  Alcotest.(check bool) "lb <= max" true
    (lb <= Stress.max_accumulated design baseline +. 1e-9)

let test_step1_milp_not_above_greedy () =
  (* The MILP probe explores at least as much as greedy packing, so
     its lower bound can only be tighter (or equal). *)
  let design, baseline = tiny_placed () in
  let greedy = Remap.step1_lower_bound design baseline in
  let milp =
    Remap.step1_lower_bound
      ~params:{ Remap.default_params with step1 = Remap.Milp_relax }
      design baseline
  in
  Alcotest.(check bool) "milp <= greedy + eps" true (milp <= greedy +. 0.15)

(* ---------- Algorithm 1 end-to-end invariants ---------- *)

let check_result design baseline (r : Remap.result) =
  Alcotest.(check bool) "mapping valid" true (Mapping.validate design r.Remap.mapping = Ok ());
  Alcotest.(check bool) "CPD not increased" true
    (r.Remap.new_cpd_ns <= r.Remap.baseline_cpd_ns +. 1e-9);
  Alcotest.(check (float 1e-9)) "baseline CPD reported" (Analysis.cpd design baseline)
    r.Remap.baseline_cpd_ns;
  Alcotest.(check (float 1e-6)) "new CPD reported"
    (Analysis.cpd design r.Remap.mapping)
    r.Remap.new_cpd_ns;
  if r.Remap.improved then
    Alcotest.(check bool) "stress not increased" true
      (Stress.max_accumulated design r.Remap.mapping
      <= Stress.max_accumulated design baseline +. 1e-9)

let test_remap_freeze_invariants () =
  let design, baseline = tiny_placed () in
  check_result design baseline (Remap.solve ~mode:Rotation.Freeze design baseline)

let test_remap_rotate_invariants () =
  let design, baseline = tiny_placed () in
  check_result design baseline (Remap.solve ~mode:Rotation.Rotate design baseline)

let test_remap_improves_tiny () =
  let design, baseline = tiny_placed () in
  let r = Remap.solve ~mode:Rotation.Rotate design baseline in
  Alcotest.(check bool) "improved" true r.Remap.improved;
  let imp = Mttf.improvement design ~baseline ~remapped:r.Remap.mapping in
  Alcotest.(check bool) "MTTF grows" true (imp > 1.3)

let test_remap_freeze_pins_hold () =
  let design, baseline = tiny_placed () in
  let r = Remap.solve ~mode:Rotation.Freeze design baseline in
  for ctx = 0 to Design.num_contexts design - 1 do
    List.iter
      (fun op ->
        Alcotest.(check int) "critical op frozen"
          (Mapping.pe_of baseline ~ctx ~op)
          (Mapping.pe_of r.Remap.mapping ~ctx ~op))
      (Rotation.critical_ops design baseline ~ctx)
  done

let test_rotate_not_worse_than_freeze () =
  List.iter
    (fun name ->
      let design, baseline = bench_placed name in
      let freeze_res, rotate_res = Remap.solve_both design baseline in
      Alcotest.(check bool)
        (name ^ ": rotate levels at least as well")
        true
        (Stress.max_accumulated design rotate_res.Remap.mapping
        <= Stress.max_accumulated design freeze_res.Remap.mapping +. 1e-9))
    [ "B1"; "B10" ]

let test_remap_monolithic_strategy () =
  let design, baseline = tiny_placed () in
  let params = { Remap.default_params with monolithic_var_limit = max_int } in
  check_result design baseline (Remap.solve ~params ~mode:Rotation.Freeze design baseline)

let test_remap_per_context_strategy () =
  let design, baseline = tiny_placed () in
  let params = { Remap.default_params with monolithic_var_limit = -1 } in
  check_result design baseline (Remap.solve ~params ~mode:Rotation.Freeze design baseline)

let test_remap_null_objective () =
  let design, baseline = tiny_placed () in
  let params = { Remap.default_params with objective = Ilp_model.Null } in
  check_result design baseline (Remap.solve ~params ~mode:Rotation.Freeze design baseline)

let test_remap_exact_encoding () =
  let design, baseline = tiny_placed () in
  let params = { Remap.default_params with encoding = Ilp_model.Exact_abs } in
  check_result design baseline (Remap.solve ~params ~mode:Rotation.Rotate design baseline)

let test_remap_rejects_invalid_baseline () =
  let design, _ = tiny_placed () in
  let bad = Mapping.create (fun _ _ -> 0) design in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Remap.solve ~mode:Rotation.Freeze design bad);
       false
     with Invalid_argument _ -> true)

(* [solve_both] runs its two modes as one pool batch; without a
   deadline the Freeze half must be exactly [solve ~mode:Freeze]. *)
let test_solve_both_freeze_matches_solve () =
  List.iter
    (fun name ->
      let design, baseline = bench_placed name in
      let fr, _ = Remap.solve_both design baseline in
      let solo = Remap.solve ~mode:Rotation.Freeze design baseline in
      Alcotest.(check bool) (name ^ " mapping") true
        (Mapping.equal fr.Remap.mapping solo.Remap.mapping);
      Alcotest.(check (float 0.0)) (name ^ " st_target") solo.Remap.st_target
        fr.Remap.st_target;
      Alcotest.(check int) (name ^ " outer iterations") solo.Remap.outer_iterations
        fr.Remap.outer_iterations;
      Alcotest.(check string) (name ^ " rung") (Remap.rung_to_string solo.Remap.rung)
        (Remap.rung_to_string fr.Remap.rung))
    [ "B5"; "B10" ]

(* ---------- deadline honesty ---------- *)

(* [Remap.solve ~mode:Rotate] (Step 1, then Freeze and Rotate) under a
   0.6 s deadline, on a 16x16 design that closes at the root (B16), one
   whose ladder the deadline cuts (B21) and a quick 8x8 one (B22). The
   solve works to the deadline less its epilogue margin (5 %, 0.03 s)
   and may then overrun it by at most one checkpoint interval: the time
   between two budget polls plus the final audit. The slack allowed is
   that margin plus a 20 ms checkpoint interval. Measured on a 2-core
   host, with a second copy of the same runs competing for the cores,
   the longest of 8 runs per design took 0.5706 s before [solve_both]
   ran its modes concurrently and 0.5703 s after (B21; B16 and B22
   finish in under 0.06 s): the overrun of the working deadline was
   under 1 ms, so 20 ms leaves room for a loaded host. *)
let test_rotate_deadline_honest () =
  let deadline = 0.6 in
  let margin = 0.03 and checkpoint = 0.02 in
  List.iter
    (fun name ->
      let design, baseline = bench_placed name in
      let params = { Remap.default_params with Remap.deadline_s = Some deadline } in
      let wall = Agingfp_util.Budget.create () in
      let r = Remap.solve ~params ~mode:Rotation.Rotate design baseline in
      let elapsed = Agingfp_util.Budget.elapsed_s wall in
      Alcotest.(check bool)
        (Printf.sprintf "%s took %.4f s against a %.1f s deadline" name elapsed deadline)
        true
        (elapsed <= deadline +. margin +. checkpoint);
      Alcotest.(check bool) (name ^ " audit clean") true (Audit.ok r.Remap.audit))
    [ "B16"; "B21"; "B22" ]

(* ---------- naive strawman ---------- *)

let test_naive_levels_but_valid () =
  let design, baseline = bench_placed "B10" in
  let naive = Naive.spread design baseline in
  Alcotest.(check bool) "valid" true (Mapping.validate design naive = Ok ());
  Alcotest.(check bool) "levels stress" true
    (Stress.max_accumulated design naive < Stress.max_accumulated design baseline)

let test_naive_breaks_cpd () =
  (* The whole point of the paper: naive spreading increases delay. *)
  let design, baseline = bench_placed "B10" in
  let naive = Naive.spread design baseline in
  Alcotest.(check bool) "CPD increased" true
    (Analysis.cpd design naive > Analysis.cpd design baseline +. 1e-9)

(* ---------- primary ILP ---------- *)

let test_primary_ilp_small_instance () =
  let design, baseline = tiny_placed () in
  let r = Primary_ilp.solve design baseline in
  Alcotest.(check bool) "has many binaries" true (r.Primary_ilp.binaries > 100);
  match r.Primary_ilp.mapping with
  | Some m ->
    Alcotest.(check bool) "valid" true (Mapping.validate design m = Ok ());
    Alcotest.(check bool) "objective sane" true
      (r.Primary_ilp.max_stress <= Stress.max_accumulated design baseline +. 1e-6)
  | None ->
    (* Budget exhaustion is an acceptable outcome for the unrelaxed
       formulation — that is the paper's point — but tiny should solve. *)
    Alcotest.fail "tiny primary ILP should solve"

let test_primary_ilp_larger_than_pruned () =
  let design, baseline = tiny_placed () in
  let full = Primary_ilp.solve design baseline in
  let _, frozen = Rotation.reference Rotation.Freeze design baseline in
  let monitored = Paths.monitored design baseline in
  let params = { Candidates.default_params with max_candidates = 6 } in
  let cands = Candidates.build ~params design baseline ~frozen ~monitored in
  let committed = Array.make 16 0.0 in
  let inst =
    Ilp_model.build design ~baseline ~st_target:10.0 ~candidates:cands ~monitored
      ~contexts:(List.init (Design.num_contexts design) (fun i -> i))
      ~committed
  in
  Alcotest.(check bool) "full formulation is bigger" true
    (full.Primary_ilp.binaries > Ilp_model.num_binaries inst)

(* ---------- refine ---------- *)

let refine_inputs design baseline =
  let reference, frozen = Rotation.reference Rotation.Freeze design baseline in
  ignore reference;
  let monitored = Paths.monitored design baseline in
  (frozen, monitored, Analysis.cpd design baseline)

let test_refine_never_worse () =
  let design, baseline = tiny_placed () in
  let frozen, monitored, baseline_cpd = refine_inputs design baseline in
  let refined, stats =
    Refine.improve design ~baseline_cpd ~frozen ~monitored baseline
  in
  Alcotest.(check bool) "valid" true (Mapping.validate design refined = Ok ());
  Alcotest.(check bool) "max stress not increased" true
    (stats.Refine.st_after <= stats.Refine.st_before +. 1e-9);
  Alcotest.(check bool) "reported st matches" true
    (abs_float (stats.Refine.st_after -. Stress.max_accumulated design refined) < 1e-9)

let test_refine_keeps_cpd () =
  let design, baseline = tiny_placed () in
  let frozen, monitored, baseline_cpd = refine_inputs design baseline in
  let refined, _ = Refine.improve design ~baseline_cpd ~frozen ~monitored baseline in
  Alcotest.(check bool) "CPD guarded" true
    (Analysis.cpd design refined <= baseline_cpd +. 1e-9)

let test_refine_keeps_pins () =
  let design, baseline = tiny_placed () in
  let frozen, monitored, baseline_cpd = refine_inputs design baseline in
  let refined, _ = Refine.improve design ~baseline_cpd ~frozen ~monitored baseline in
  Array.iteri
    (fun ctx pins ->
      List.iter
        (fun (op, pe) ->
          Alcotest.(check int) "pin kept" pe (Mapping.pe_of refined ~ctx ~op))
        pins)
    frozen

let test_refine_improves_concentrated () =
  (* On a freshly placed (concentrated) baseline refine should find
     at least one improving move. *)
  let design, baseline = bench_placed "B10" in
  let frozen, monitored, baseline_cpd = refine_inputs design baseline in
  let _, stats = Refine.improve design ~baseline_cpd ~frozen ~monitored baseline in
  Alcotest.(check bool) "made progress" true (stats.Refine.moves_accepted > 0);
  Alcotest.(check bool) "lowered hotspot" true
    (stats.Refine.st_after < stats.Refine.st_before -. 1e-9)

let test_refine_move_budget () =
  let design, baseline = bench_placed "B10" in
  let frozen, monitored, baseline_cpd = refine_inputs design baseline in
  let params = { Refine.default_params with max_moves = 3 } in
  let _, stats =
    Refine.improve ~params design ~baseline_cpd ~frozen ~monitored baseline
  in
  Alcotest.(check bool) "within budget" true (stats.Refine.moves_accepted <= 3)

let test_refine_trials_counted () =
  let design, baseline = bench_placed "B8" in
  let frozen, monitored, baseline_cpd = refine_inputs design baseline in
  let _, stats = Refine.improve design ~baseline_cpd ~frozen ~monitored baseline in
  Alcotest.(check bool) "trials >= accepted" true
    (stats.Refine.trials >= stats.Refine.moves_accepted);
  (* With no CPD bound and no monitored path, every trial is accepted. *)
  let no_paths = Array.make (Design.num_contexts design) [] in
  let _, free =
    Refine.improve design ~baseline_cpd:infinity ~frozen ~monitored:no_paths baseline
  in
  Alcotest.(check bool) "moves made" true (free.Refine.moves_accepted > 0);
  Alcotest.(check int) "trials = accepted" free.Refine.moves_accepted free.Refine.trials

(* ---------- related-work strategies ---------- *)

let test_related_configurations_preserve_cpd () =
  let design, baseline = tiny_placed () in
  let cpd = Analysis.cpd design baseline in
  let configs = Related.configurations design baseline ~n:8 in
  Alcotest.(check bool) "several configs" true (List.length configs >= 2);
  List.iter
    (fun m ->
      Alcotest.(check bool) "valid" true (Mapping.validate design m = Ok ());
      Alcotest.(check (float 1e-9)) "CPD preserved" cpd (Analysis.cpd design m))
    configs

let test_related_duty_conserves_total () =
  let design, baseline = tiny_placed () in
  let duty = Related.rotation_cycling_duty design baseline in
  let c = float_of_int (Design.num_contexts design) in
  let direct =
    Array.fold_left ( +. ) 0.0 (Stress.accumulated design baseline) /. c
  in
  Alcotest.(check (float 1e-9)) "total duty conserved" direct
    (Array.fold_left ( +. ) 0.0 duty)

let test_related_cycling_levels () =
  (* Averaging permutations of the same stress multiset can never
     raise the peak; on a low-utilization fabric (spare PEs to rotate
     into) it strictly lowers it. *)
  List.iter
    (fun (name, strict) ->
      let design, baseline = bench_placed name in
      let single =
        Array.map
          (fun s -> s /. float_of_int (Design.num_contexts design))
          (Stress.accumulated design baseline)
      in
      let cycled = Related.rotation_cycling_duty design baseline in
      let peak_single = Agingfp_util.Stats.fmax single in
      let peak_cycled = Agingfp_util.Stats.fmax cycled in
      Alcotest.(check bool) (name ^ " peak never raised") true
        (peak_cycled <= peak_single +. 1e-9);
      if strict then
        Alcotest.(check bool) (name ^ " strictly lowered") true
          (peak_cycled < peak_single -. 1e-9))
    [ ("B1", true); ("B10", false) ]

let test_related_milp_beats_cycling () =
  let design, baseline = bench_placed "B13" in
  let base = (Mttf_mod.of_mapping design baseline).Mttf_mod.mttf_s in
  let cycled =
    (Mttf_mod.of_duty design (Related.rotation_cycling_duty design baseline)).Mttf_mod.mttf_s
  in
  let r = Remap.solve ~mode:Rotation.Rotate design baseline in
  let ours = (Mttf_mod.of_mapping design r.Remap.mapping).Mttf_mod.mttf_s in
  Alcotest.(check bool) "MILP wins on spare fabric" true (ours > cycled);
  Alcotest.(check bool) "cycling still helps" true (cycled > base)

(* ---------- lifetime simulation ---------- *)

let test_lifetime_orderings () =
  let design, baseline = tiny_placed () in
  let remapped = (Remap.solve ~mode:Rotation.Rotate design baseline).Remap.mapping in
  let years o =
    match o.Lifetime.failed_at_years with Some y -> y | None -> infinity
  in
  let base = Lifetime.simulate design ~epochs:400 ~epoch_years:2.0 (Lifetime.Static baseline) in
  let aware = Lifetime.simulate design ~epochs:400 ~epoch_years:2.0 (Lifetime.Static remapped) in
  let periodic =
    Lifetime.simulate design ~epochs:400 ~epoch_years:2.0
      (Lifetime.wear_aware_strategy design ~baseline ~start:remapped)
  in
  Alcotest.(check bool) "aware outlives baseline" true (years aware > years base);
  Alcotest.(check bool) "periodic at least as good" true
    (years periodic >= years aware -. 2.0)

let test_lifetime_static_matches_mttf () =
  (* The epoch simulation of a static mapping must agree with the
     closed-form MTTF solve (up to epoch granularity). *)
  let design, baseline = tiny_placed () in
  let closed = (Mttf.of_mapping design baseline).Mttf.mttf_s /. 3.156e7 in
  let o =
    Lifetime.simulate design ~epochs:2000 ~epoch_years:0.5 (Lifetime.Static baseline)
  in
  match o.Lifetime.failed_at_years with
  | None -> Alcotest.fail "should fail within horizon"
  | Some y -> Alcotest.(check bool) "within 1%" true (abs_float (y -. closed) /. closed < 0.01)

let test_lifetime_survives_short_horizon () =
  let design, baseline = tiny_placed () in
  let o = Lifetime.simulate design ~epochs:2 ~epoch_years:0.5 (Lifetime.Static baseline) in
  Alcotest.(check bool) "survives" true (o.Lifetime.failed_at_years = None);
  Alcotest.(check int) "ran all epochs" 2 o.Lifetime.epochs_run;
  Alcotest.(check bool) "some wear accumulated" true
    (Array.fold_left ( +. ) 0.0 o.Lifetime.final_wear > 0.0)

let test_lifetime_periodic_mappings_delay_clean () =
  (* Every epoch's re-mapped floorplan must keep the CPD guarantee. *)
  let design, baseline = tiny_placed () in
  let remapped = (Remap.solve ~mode:Rotation.Rotate design baseline).Remap.mapping in
  let cpd0 = Analysis.cpd design baseline in
  let strategy = Lifetime.wear_aware_strategy design ~baseline ~start:remapped in
  (match strategy with
  | Lifetime.Periodic f ->
    let wear = Array.init 16 (fun i -> float_of_int i *. 1e7) in
    let m = f ~epoch:3 ~wear in
    Alcotest.(check bool) "valid" true (Mapping.validate design m = Ok ());
    Alcotest.(check bool) "delay clean" true (Analysis.cpd design m <= cpd0 +. 1e-9)
  | Lifetime.Static _ -> Alcotest.fail "expected periodic")

(* ---------- audit ---------- *)

let audit_has (r : Audit.report) code =
  List.exists (fun (v : Audit.violation) -> v.Audit.code = code) r.Audit.violations

(* Audit inputs matching what [Remap.solve] itself audits with. *)
let audit_inputs design baseline ~mode =
  let _, frozen = Rotation.reference mode design baseline in
  let monitored = Paths.monitored design baseline in
  (Analysis.cpd design baseline, frozen, monitored)

let test_audit_clean_remap () =
  let design, baseline = tiny_placed () in
  let r = Remap.solve ~mode:Rotation.Freeze design baseline in
  Alcotest.(check bool) "remap result carries a clean audit" true (Audit.ok r.Remap.audit);
  Alcotest.(check bool) "cpd recomputed" true
    (abs_float (r.Remap.audit.Audit.cpd_ns -. r.Remap.new_cpd_ns) < 1e-9)

let test_audit_baseline_against_own_figures () =
  (* The baseline audited against its own CPD and stress is clean. *)
  let design, baseline = tiny_placed () in
  let cpd = Analysis.cpd design baseline in
  let st = Stress.max_accumulated design baseline in
  let frozen = Array.make (Design.num_contexts design) [] in
  let monitored = Paths.monitored design baseline in
  let report = Audit.run design ~baseline_cpd:cpd ~st_target:st ~frozen ~monitored baseline in
  Alcotest.(check bool) "clean" true (Audit.ok report);
  Alcotest.(check bool) "paths were checked" true (report.Audit.paths_checked > 0)

let test_audit_rejects_double_bound_op () =
  (* Hand-break the mapping: put op 1 of context 0 on op 0's PE. *)
  let design, baseline = tiny_placed () in
  let cpd, frozen, monitored = audit_inputs design baseline ~mode:Rotation.Freeze in
  let st = Stress.max_accumulated design baseline in
  let broken =
    Mapping.set baseline ~ctx:0 ~op:1 ~pe:(Mapping.pe_of baseline ~ctx:0 ~op:0)
  in
  let report = Audit.run design ~baseline_cpd:cpd ~st_target:st ~frozen ~monitored broken in
  Alcotest.(check bool) "rejected" false (Audit.ok report);
  Alcotest.(check bool) "as Invalid_mapping" true (audit_has report Audit.Invalid_mapping)

let test_audit_rejects_out_of_range_pe () =
  let design, baseline = tiny_placed () in
  let cpd, frozen, monitored = audit_inputs design baseline ~mode:Rotation.Freeze in
  let st = Stress.max_accumulated design baseline in
  let broken = Mapping.set baseline ~ctx:0 ~op:0 ~pe:999 in
  let report = Audit.run design ~baseline_cpd:cpd ~st_target:st ~frozen ~monitored broken in
  Alcotest.(check bool) "rejected" false (Audit.ok report);
  Alcotest.(check bool) "as Invalid_mapping" true (audit_has report Audit.Invalid_mapping)

let test_audit_rejects_moved_pin_and_blown_path () =
  (* Swap a frozen critical op with whichever occupant stretches a
     monitored path through the op the most: still a valid
     permutation, but the pin is violated and the path's wire budget
     breaks. Picking the farthest PE *from the pin* is not enough —
     the far corner can be equidistant from the op's path neighbours,
     leaving the path length unchanged. *)
  let design, baseline = tiny_placed () in
  let cpd, frozen, monitored = audit_inputs design baseline ~mode:Rotation.Freeze in
  let st = Stress.max_accumulated design baseline in
  let fabric = Design.fabric design in
  (* The permutation-preserving swap of [op] (ctx [ctx], home [pe])
     onto PE [q]. *)
  let swap ctx op pe q =
    let occupant = ref None in
    Array.iteri
      (fun o p -> if p = q then occupant := Some o)
      (Mapping.context_array baseline ctx);
    let m = Mapping.set baseline ~ctx ~op ~pe:q in
    match !occupant with
    | Some o when o <> op -> Mapping.set m ~ctx ~op:o ~pe
    | _ -> m
  in
  (* Over every frozen pin on a multi-op monitored path, find the swap
     with the largest wire-budget overshoot. *)
  let best = ref None in
  Array.iteri
    (fun ctx pins ->
      List.iter
        (fun (op, pe) ->
          List.iter
            (fun (b : Paths.budgeted) ->
              let nodes = b.Paths.path.Analysis.nodes in
              if Array.length nodes >= 2 && Array.exists (( = ) op) nodes then
                for q = 0 to Fabric.num_pes fabric - 1 do
                  let over =
                    Analysis.wire_length design (swap ctx op pe q) b.Paths.path
                    - b.Paths.wire_budget
                  in
                  match !best with
                  | Some (_, best_over) when best_over >= over -> ()
                  | _ -> best := Some ((ctx, op, pe, q), over)
                done)
            monitored.(ctx))
        pins)
    frozen;
  let (ctx, op, pe, q), overshoot =
    match !best with
    | Some x -> x
    | None -> Alcotest.fail "no frozen pin on a monitored path in tiny"
  in
  Alcotest.(check bool) "a swap exceeding the wire budget exists" true (overshoot > 0);
  let broken = swap ctx op pe q in
  let report = Audit.run design ~baseline_cpd:cpd ~st_target:st ~frozen ~monitored broken in
  Alcotest.(check bool) "rejected" false (Audit.ok report);
  Alcotest.(check bool) "pin violation reported" true
    (audit_has report Audit.Frozen_pin_moved);
  Alcotest.(check bool) "path or CPD violation reported" true
    (audit_has report Audit.Path_over_budget || audit_has report Audit.Cpd_increased)

let test_audit_rejects_stress_over_budget () =
  (* An absurdly tight ST_target must be flagged, with the true max
     stress reported. *)
  let design, baseline = tiny_placed () in
  let cpd, frozen, monitored = audit_inputs design baseline ~mode:Rotation.Freeze in
  let report =
    Audit.run design ~baseline_cpd:cpd ~st_target:1e-6 ~frozen ~monitored baseline
  in
  Alcotest.(check bool) "rejected" false (Audit.ok report);
  Alcotest.(check bool) "as Stress_over_budget" true
    (audit_has report Audit.Stress_over_budget);
  Alcotest.(check (float 1e-9)) "true stress reported"
    (Stress.max_accumulated design baseline)
    report.Audit.max_stress

let test_remap_certify_clean () =
  (* The flow's own certificates: every LP/MILP check passes on tiny. *)
  let design, baseline = tiny_placed () in
  Remap.reset_certification ();
  let params = { Remap.default_params with Remap.certify = true } in
  let r = Remap.solve ~params ~mode:Rotation.Rotate design baseline in
  let c = Remap.certification () in
  Alcotest.(check int) "no rejections" 0 c.Remap.rejected;
  Alcotest.(check bool) "something was checked" true
    (c.Remap.lp_checked + c.Remap.milp_checked > 0);
  Alcotest.(check bool) "audit clean" true (Audit.ok r.Remap.audit)

(* ---------- solver search tripwire ---------- *)

(* Exact search counters of [Remap.solve_both] on the canonical B10 (a
   4x4 design that closes at the root) and B5 (an 8x8 design with a
   branch-and-bound tree and warm re-solves). Kernel and pricing
   rewrites must leave every pivot bit-identical, so these counts may
   only change with a deliberate change to the pivot rules, the
   refactorization policy or the search; update them then, and only
   then. The one exception is the dual restore's cycle exit, which
   ends a repeating run of bound flips early and lands on the same
   cold restart: it may move [lp_iterations], and nothing else. *)
let golden_counters name ~nodes ~lp_iterations ~warm ~cold ~refactorizations ~eta_updates
    () =
  let design, baseline = bench_placed name in
  Milp.reset_cumulative ();
  ignore (Remap.solve_both design baseline);
  let s = Milp.cumulative () in
  let check what expected got = Alcotest.(check int) (name ^ " " ^ what) expected got in
  check "nodes" nodes s.Milp.nodes;
  check "lp_iterations" lp_iterations s.Milp.lp_iterations;
  check "warm_solves" warm s.Milp.warm_solves;
  check "cold_solves" cold s.Milp.cold_solves;
  check "refactorizations" refactorizations s.Milp.refactorizations;
  check "eta_updates" eta_updates s.Milp.eta_updates

let test_golden_b10 =
  golden_counters "B10" ~nodes:0 ~lp_iterations:209 ~warm:0 ~cold:2 ~refactorizations:4
    ~eta_updates:209

let test_golden_b5 =
  golden_counters "B5" ~nodes:17 ~lp_iterations:6039 ~warm:113 ~cold:99
    ~refactorizations:102 ~eta_updates:3577

(* The refine pass on B8's baseline under the Freeze plan: a
   16-context 8x8 design whose pass rejects most of its trials. The
   values were recorded on the full-rescan implementation the fast scan
   replaced (test/refine_reference.ml); any reordering of the scan's
   arithmetic moves them. *)
let test_golden_b8_refine () =
  let design, baseline = bench_placed "B8" in
  let frozen, monitored, baseline_cpd = refine_inputs design baseline in
  let _, s = Refine.improve design ~baseline_cpd ~frozen ~monitored baseline in
  Alcotest.(check int) "B8 moves_accepted" 400 s.Refine.moves_accepted;
  Alcotest.(check int) "B8 trials" 3115 s.Refine.trials;
  Alcotest.(check int64) "B8 st_after bits" 4613024826006614469L
    (Int64.bits_of_float s.Refine.st_after)

(* ---------- properties ---------- *)

let prop_remap_never_breaks_cpd =
  QCheck2.Test.make ~name:"remap never increases CPD (random tiny designs)" ~count:8
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let spec =
        {
          Benchmarks.bname = "rand";
          contexts = 4;
          dim = 4;
          total_ops = 24 + (seed mod 16);
          usage = Benchmarks.Low;
          paper_freeze = 0.0;
          paper_rotate = 0.0;
        }
      in
      let design = Benchmarks.generate ~seed spec in
      let baseline = Placer.aging_unaware design in
      let r = Remap.solve ~mode:Rotation.Rotate design baseline in
      Mapping.validate design r.Remap.mapping = Ok ()
      && r.Remap.new_cpd_ns <= r.Remap.baseline_cpd_ns +. 1e-9)

(* The fast refine pass against the full-rescan implementation it
   replaced: the same mapping and the same stress figures, bit for
   bit, on Freeze and Rotate inputs, with and without initial wear. *)
let prop_refine_matches_reference =
  let specs = [| "B1"; "B4"; "B7"; "B10"; "B25"; "B2" |] in
  QCheck2.Test.make ~name:"fast refine matches the full-rescan reference" ~count:24
    ~print:(fun (spec, seed, rotate, nb, moves, wear) ->
      Printf.sprintf "%s seed=%d %s neighbourhood=%d max_moves=%d wear=%s" specs.(spec)
        seed
        (if rotate then "rotate" else "freeze")
        nb moves
        (match wear with None -> "none" | Some w -> string_of_int w))
    QCheck2.Gen.(
      tup6
        (int_bound (Array.length specs - 1))
        (int_range 1 1000) bool (int_range 1 8) (int_range 1 400)
        (opt (int_range 0 1_000_000)))
    (fun (spec, seed, rotate, neighbourhood, max_moves, wear) ->
      let design = Benchmarks.generate ~seed (Option.get (Benchmarks.find specs.(spec))) in
      let baseline = Placer.aging_unaware design in
      let mode = if rotate then Rotation.Rotate else Rotation.Freeze in
      let start, frozen = Rotation.reference mode design baseline in
      let monitored = Paths.monitored design baseline in
      let baseline_cpd = Analysis.cpd design baseline in
      let initial =
        Option.map
          (fun s ->
            let rng = Random.State.make [| s |] in
            let contexts = float_of_int (Design.num_contexts design) in
            Array.init (Fabric.num_pes (Design.fabric design)) (fun _ ->
                Random.State.float rng contexts))
          wear
      in
      let fast, s =
        Refine.improve ~params:{ Refine.max_moves; neighbourhood } ?initial design
          ~baseline_cpd ~frozen ~monitored start
      in
      let slow, r =
        Refine_reference.improve
          ~params:{ Refine_reference.max_moves; neighbourhood }
          ?initial design ~baseline_cpd ~frozen ~monitored start
      in
      Mapping.equal fast slow
      && s.Refine.moves_accepted = r.Refine_reference.moves_accepted
      && Float.equal s.Refine.st_before r.Refine_reference.st_before
      && Float.equal s.Refine.st_after r.Refine_reference.st_after)

let prop_rotation_reference_preserves_all_path_delays =
  QCheck2.Test.make ~name:"rotation reference preserves every monitored path delay"
    ~count:8
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let spec =
        {
          Benchmarks.bname = "rand";
          contexts = 4;
          dim = 4;
          total_ops = 28;
          usage = Benchmarks.Low;
          paper_freeze = 0.0;
          paper_rotate = 0.0;
        }
      in
      let design = Benchmarks.generate ~seed spec in
      let baseline = Placer.aging_unaware design in
      let reference, _ = Rotation.rotate_reference ~seed design baseline in
      let ok = ref true in
      for ctx = 0 to Design.num_contexts design - 1 do
        List.iter
          (fun (p : Analysis.path) ->
            if
              abs_float (Analysis.path_delay design reference p -. p.Analysis.delay_ns)
              > 1e-9
            then ok := false)
          (Analysis.monitored_paths design baseline ~ctx ())
      done;
      !ok)

let () =
  Alcotest.run "floorplan"
    [
      ( "rotation",
        [
          Alcotest.test_case "orientation counts rule" `Quick test_orientation_counts_rule;
          Alcotest.test_case "freeze pins original" `Quick test_freeze_plan_pins_original;
          Alcotest.test_case "freeze covers critical ops" `Quick
            test_freeze_plan_covers_critical_ops;
          Alcotest.test_case "rotate reference valid + CPD" `Quick
            test_rotate_reference_valid_and_cpd_preserving;
          Alcotest.test_case "pins match reference" `Quick test_rotate_pins_match_reference;
          Alcotest.test_case "overlap reduced" `Quick test_rotate_reduces_cp_overlap;
        ] );
      ( "paths",
        [
          Alcotest.test_case "budgets cover baseline" `Quick test_budgets_cover_baseline;
          Alcotest.test_case "critical slack zero" `Quick test_critical_path_slack_zero;
          Alcotest.test_case "Eq. 5 budgets" `Quick test_budget_respects_eq5;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "frozen singleton" `Quick test_candidates_frozen_singleton;
          Alcotest.test_case "reference position present" `Quick
            test_candidates_contain_reference_position;
          Alcotest.test_case "cap respected" `Quick test_candidates_capped;
          Alcotest.test_case "no duplicates" `Quick test_candidates_distinct;
        ] );
      ( "ilp-model",
        [
          Alcotest.test_case "feasible at ST_up" `Quick test_model_feasible_at_st_up;
          Alcotest.test_case "infeasible below floor" `Quick
            test_model_infeasible_below_floor;
          Alcotest.test_case "extract valid" `Quick test_model_extract_valid;
        ] );
      ( "step1",
        [
          Alcotest.test_case "between mean and max" `Quick test_step1_between_mean_and_max;
          Alcotest.test_case "milp vs greedy" `Quick test_step1_milp_not_above_greedy;
        ] );
      ( "algorithm1",
        [
          Alcotest.test_case "freeze invariants" `Quick test_remap_freeze_invariants;
          Alcotest.test_case "rotate invariants" `Quick test_remap_rotate_invariants;
          Alcotest.test_case "improves tiny" `Quick test_remap_improves_tiny;
          Alcotest.test_case "freeze pins hold" `Quick test_remap_freeze_pins_hold;
          Alcotest.test_case "rotate >= freeze" `Slow test_rotate_not_worse_than_freeze;
          Alcotest.test_case "monolithic strategy" `Quick test_remap_monolithic_strategy;
          Alcotest.test_case "per-context strategy" `Quick test_remap_per_context_strategy;
          Alcotest.test_case "null objective" `Quick test_remap_null_objective;
          Alcotest.test_case "exact encoding" `Quick test_remap_exact_encoding;
          Alcotest.test_case "invalid baseline rejected" `Quick
            test_remap_rejects_invalid_baseline;
          Alcotest.test_case "solve_both freeze = solve" `Quick
            test_solve_both_freeze_matches_solve;
        ] );
      ( "deadline",
        [ Alcotest.test_case "rotate within 0.6 s" `Quick test_rotate_deadline_honest ] );
      ( "naive",
        [
          Alcotest.test_case "levels but valid" `Quick test_naive_levels_but_valid;
          Alcotest.test_case "breaks CPD" `Quick test_naive_breaks_cpd;
        ] );
      ( "primary-ilp",
        [
          Alcotest.test_case "small instance" `Slow test_primary_ilp_small_instance;
          Alcotest.test_case "bigger than pruned" `Quick test_primary_ilp_larger_than_pruned;
        ] );
      ( "refine",
        [
          Alcotest.test_case "never worse" `Quick test_refine_never_worse;
          Alcotest.test_case "keeps CPD" `Quick test_refine_keeps_cpd;
          Alcotest.test_case "keeps pins" `Quick test_refine_keeps_pins;
          Alcotest.test_case "improves concentrated" `Quick
            test_refine_improves_concentrated;
          Alcotest.test_case "move budget" `Quick test_refine_move_budget;
          Alcotest.test_case "trials counted" `Quick test_refine_trials_counted;
        ] );
      ( "audit",
        [
          Alcotest.test_case "clean remap" `Quick test_audit_clean_remap;
          Alcotest.test_case "baseline self-consistent" `Quick
            test_audit_baseline_against_own_figures;
          Alcotest.test_case "double-bound op rejected" `Quick
            test_audit_rejects_double_bound_op;
          Alcotest.test_case "out-of-range PE rejected" `Quick
            test_audit_rejects_out_of_range_pe;
          Alcotest.test_case "moved pin + blown path rejected" `Quick
            test_audit_rejects_moved_pin_and_blown_path;
          Alcotest.test_case "stress over budget rejected" `Quick
            test_audit_rejects_stress_over_budget;
          Alcotest.test_case "remap --certify clean" `Quick test_remap_certify_clean;
        ] );
      ( "related",
        [
          Alcotest.test_case "configs preserve CPD" `Quick
            test_related_configurations_preserve_cpd;
          Alcotest.test_case "duty conserved" `Quick test_related_duty_conserves_total;
          Alcotest.test_case "cycling levels" `Quick test_related_cycling_levels;
          Alcotest.test_case "MILP beats cycling" `Slow test_related_milp_beats_cycling;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "strategy ordering" `Quick test_lifetime_orderings;
          Alcotest.test_case "static matches closed form" `Quick
            test_lifetime_static_matches_mttf;
          Alcotest.test_case "short horizon" `Quick test_lifetime_survives_short_horizon;
          Alcotest.test_case "periodic delay-clean" `Quick
            test_lifetime_periodic_mappings_delay_clean;
        ] );
      ( "tripwire",
        [
          Alcotest.test_case "B10 golden counters" `Quick test_golden_b10;
          Alcotest.test_case "B5 golden counters" `Quick test_golden_b5;
          Alcotest.test_case "B8 refine" `Quick test_golden_b8_refine;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_remap_never_breaks_cpd;
          QCheck_alcotest.to_alcotest prop_rotation_reference_preserves_all_path_delays;
          QCheck_alcotest.to_alcotest prop_refine_matches_reference;
        ] );
    ]
