(* Fault-injection suite: the seeded injector itself (spec parsing,
   determinism, each class actually firing at the solver layer), and
   the headline robustness property — with a 1 s deadline and any
   single fault class armed, [Remap.solve] on every bundled benchmark
   returns an audit-clean mapping within 2x the deadline, with the
   degradation trail explaining any downgrade.

   The whole suite runs under one fixed seed so a failure reproduces
   bit-for-bit; the [@faults] dune alias runs exactly this binary. *)

open Agingfp_cgrra
module Budget = Agingfp_util.Budget
module Model = Agingfp_lp.Model
module Expr = Agingfp_lp.Expr
module Simplex = Agingfp_lp.Simplex
module Milp = Agingfp_lp.Milp
module Faults = Agingfp_lp.Faults
module Placer = Agingfp_place.Placer
module Remap = Agingfp_floorplan.Remap
module Rotation = Agingfp_floorplan.Rotation
module Audit = Agingfp_floorplan.Audit

let seed = 1729

(* ---------- spec parsing ---------- *)

let test_spec_parse () =
  match Faults.of_string "seed=42,infeas=0.5,raise=0.05" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check int) "seed" 42 s.Faults.seed;
    Alcotest.(check (float 0.0)) "infeas" 0.5 s.Faults.p_infeasible;
    Alcotest.(check (float 0.0)) "raise" 0.05 s.Faults.p_exception;
    Alcotest.(check (float 0.0)) "iter defaults to 0" 0.0 s.Faults.p_iteration_limit;
    Alcotest.(check (float 0.0)) "pivot defaults to 0" 0.0 s.Faults.p_perturb

let test_spec_rejects_garbage () =
  let bad spec =
    match Faults.of_string spec with
    | Ok _ -> Alcotest.failf "accepted %S" spec
    | Error _ -> ()
  in
  bad "bogus=1";
  bad "iter=notafloat";
  bad "seed=1.5";
  bad "iter"

let test_spec_roundtrip () =
  let spec =
    {
      Faults.seed = 42;
      p_iteration_limit = 0.25;
      p_perturb = 0.125;
      perturb_mag = 0.05;
      p_infeasible = 0.5;
      p_exception = 0.0625;
    }
  in
  match Faults.of_string (Faults.to_string spec) with
  | Error e -> Alcotest.fail e
  | Ok s -> Alcotest.(check bool) "round-trips" true (s = spec)

(* ---------- the injector at the solver layer ---------- *)

(* A small LP with enough pivots that per-pivot fault classes get a
   chance to fire. *)
let pivoty_lp () =
  let m = Model.create () in
  let n = 6 in
  let vars = Array.init n (fun _ -> Model.add_var ~ub:4.0 m) in
  for i = 0 to n - 2 do
    ignore
      (Model.add_constraint m
         (Expr.add (Expr.var vars.(i)) (Expr.var ~coef:2.0 vars.(i + 1)))
         Model.Le
         (5.0 +. float_of_int i))
  done;
  Model.set_objective m Model.Maximize
    (Expr.sum (Array.to_list (Array.mapi (fun i v -> Expr.var ~coef:(1.0 +. float_of_int i) v) vars)));
  m

let test_spurious_iteration_limit_fires () =
  Faults.with_spec { Faults.none with seed; p_iteration_limit = 1.0 } (fun () ->
      match Simplex.solve (pivoty_lp ()) with
      | Simplex.Iteration_limit -> ()
      | s -> Alcotest.failf "expected Iteration_limit, got %a" Simplex.pp_status s)

(* A root LP cut by its iteration limit must say so in the stop
   reason, as a cut tree search does: the remap ladder reads [stop] to
   put the cut in its degradation trail. *)
let test_relax_and_fix_root_iteration_limit () =
  Faults.with_spec { Faults.none with seed; p_iteration_limit = 1.0 } (fun () ->
      let result, stats = Milp.relax_and_fix_with_stats (pivoty_lp ()) in
      Alcotest.(check bool) "no solution" true (result = Milp.Unknown);
      Alcotest.(check string) "stop reason" "iteration-limit"
        (Budget.stop_reason_to_string stats.Milp.stop))

let test_forged_infeasibility_fires () =
  Faults.with_spec { Faults.none with seed; p_infeasible = 1.0 } (fun () ->
      match Simplex.solve (pivoty_lp ()) with
      | Simplex.Infeasible -> ()
      | s -> Alcotest.failf "expected forged Infeasible, got %a" Simplex.pp_status s)

let test_injected_exception_escapes_simplex () =
  let raised =
    try
      Faults.with_spec { Faults.none with seed; p_exception = 1.0 } (fun () ->
          ignore (Simplex.solve (pivoty_lp ()));
          false)
    with Faults.Injected _ -> true
  in
  Alcotest.(check bool) "Injected escapes a bare Simplex.solve" true raised

let test_perturbed_pivots_still_terminate () =
  (* Perturbed step lengths corrupt the numerics, not the control
     flow: the solve must still return some status, and the counter
     must prove perturbations actually happened. *)
  let status, fired =
    Faults.with_spec { Faults.none with seed; p_perturb = 1.0; perturb_mag = 0.05 }
      (fun () ->
        let s = Simplex.solve (pivoty_lp ()) in
        (s, Faults.fired ()))
  in
  Alcotest.(check bool) "pivots were perturbed" true (fired.Faults.perturbations > 0);
  Alcotest.(check bool) "solve returned a status" true
    (match status with
    | Simplex.Optimal _ | Simplex.Infeasible | Simplex.Unbounded
    | Simplex.Iteration_limit | Simplex.Deadline | Simplex.Fault _ ->
      true)

let test_injection_deterministic () =
  let spec =
    {
      Faults.seed;
      p_iteration_limit = 0.3;
      p_perturb = 0.2;
      perturb_mag = 0.05;
      p_infeasible = 0.2;
      p_exception = 0.05;
    }
  in
  let run () =
    Faults.with_spec spec (fun () ->
        let tags =
          List.init 20 (fun _ ->
              try
                match Simplex.solve (pivoty_lp ()) with
                | Simplex.Optimal s -> Printf.sprintf "optimal %.9f" s.Simplex.objective
                | Simplex.Infeasible -> "infeasible"
                | Simplex.Unbounded -> "unbounded"
                | Simplex.Iteration_limit -> "iteration-limit"
                | Simplex.Deadline -> "deadline"
                | Simplex.Fault w -> "fault " ^ w
              with Faults.Injected w -> "raised " ^ w)
        in
        (tags, Faults.fired ()))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same fault stream, same outcomes" true (a = b)

(* Two domains draw at once, as a remap's Freeze and Rotate runs do:
   at p = 1.0 every draw fires, so no count may be lost. *)
let test_injection_across_domains () =
  let n = 50_000 in
  let spec = { Faults.none with seed; p_iteration_limit = 1.0; p_perturb = 1.0 } in
  let fired =
    Faults.with_spec spec (fun () ->
        let draw () =
          for _ = 1 to n do
            ignore (Faults.spurious_iteration_limit ());
            ignore (Faults.step_scale ())
          done
        in
        let other = Domain.spawn draw in
        draw ();
        Domain.join other;
        Faults.fired ())
  in
  Alcotest.(check int) "iteration limits" (2 * n) fired.Faults.iteration_limits;
  Alcotest.(check int) "perturbations" (2 * n) fired.Faults.perturbations

let test_mid_solve_fault_keeps_milp_incumbent () =
  (* Milp converts an escaped Injected into a Fault stop but must not
     lose an incumbent it already has. Force the fault late by arming
     the injector low-probability: across the node sequence a fault
     eventually fires, and whenever the result is Feasible the stats
     stop reason reflects the interruption honestly. *)
  let m = Model.create () in
  let vars = Array.init 8 (fun _ -> Model.add_binary m) in
  ignore
    (Model.add_constraint m
       (Expr.sum (Array.to_list (Array.mapi (fun i v -> Expr.var ~coef:(float_of_int (1 + (i mod 4))) v) vars)))
       Model.Le 7.0);
  Model.set_objective m Model.Maximize
    (Expr.sum (Array.to_list (Array.mapi (fun i v -> Expr.var ~coef:(float_of_int (8 - i)) v) vars)));
  let spec = { Faults.none with seed; p_exception = 0.02 } in
  let params = { Milp.default_params with first_solution = false; presolve = false } in
  Faults.with_spec spec (fun () ->
      let result, stats = Milp.solve_with_stats ~params m in
      match (result, stats.Milp.stop) with
      | _, Budget.Optimal ->
        (* The fault stream happened not to fire before the proof
           finished — legal; the solve must then be a normal one. *)
        Alcotest.(check bool) "completed solve is feasible" true
          (match result with Milp.Feasible _ -> true | _ -> false)
      | Milp.Feasible _, Budget.Fault _ -> ()
      | Milp.Unknown, Budget.Fault _ -> ()
      | r, stop ->
        Alcotest.failf "unexpected (result, stop) = (%s, %s)"
          (match r with
          | Milp.Feasible _ -> "Feasible"
          | Milp.Infeasible -> "Infeasible"
          | Milp.Unknown -> "Unknown")
          (Budget.stop_reason_to_string stop))

(* ---------- the deadline at the simplex layer ---------- *)

let test_simplex_expired_budget_stops () =
  let params =
    { Simplex.default_params with Simplex.budget = Budget.create ~deadline_s:0.0 () }
  in
  match Simplex.solve ~params (pivoty_lp ()) with
  | Simplex.Deadline -> ()
  | s -> Alcotest.failf "expected Deadline, got %a" Simplex.pp_status s

(* ---------- the headline property: the ladder survives ---------- *)

let deadline_s = 1.0

let fault_classes =
  [
    ("none", Faults.none);
    ("iter", { Faults.none with seed; p_iteration_limit = 1.0 });
    ("pivot", { Faults.none with seed; p_perturb = 1.0; perturb_mag = 0.05 });
    ("infeas", { Faults.none with seed; p_infeasible = 1.0 });
    ("raise", { Faults.none with seed; p_exception = 0.1 });
  ]

let benchmarks =
  lazy
    (("tiny", Benchmarks.tiny ())
    :: Array.to_list
         (Array.map
            (fun (s : Benchmarks.spec) -> (s.Benchmarks.bname, Benchmarks.generate s))
            Benchmarks.table1))

let survives name design spec () =
  let baseline = Placer.aging_unaware design in
  let params = { Remap.default_params with Remap.deadline_s = Some deadline_s } in
  let wall = Budget.create () in
  let r =
    Faults.with_spec spec (fun () ->
        Remap.solve ~params ~mode:Rotation.Freeze design baseline)
  in
  let elapsed = Budget.elapsed_s wall in
  Alcotest.(check bool)
    (Printf.sprintf "%s finished within 2x deadline (%.2fs)" name elapsed)
    true
    (elapsed <= 2.0 *. deadline_s);
  Alcotest.(check bool) (name ^ " audit clean") true (Audit.ok r.Remap.audit);
  Alcotest.(check bool) (name ^ " mapping valid") true
    (Mapping.validate design r.Remap.mapping = Ok ());
  Alcotest.(check bool) (name ^ " stress never above baseline") true
    (Stress.max_accumulated design r.Remap.mapping <= r.Remap.st_up +. 1e-6);
  if r.Remap.rung <> Remap.Full_milp then
    Alcotest.(check bool) (name ^ " degradation trail populated") true
      (r.Remap.degradation <> [])

let ladder_tests =
  List.concat_map
    (fun (cname, spec) ->
      List.map
        (fun (bname, design) ->
          let name = Printf.sprintf "%s/%s" cname bname in
          Alcotest.test_case name `Slow (survives name design spec))
        (Lazy.force benchmarks))
    fault_classes

let () =
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "rejects garbage" `Quick test_spec_rejects_garbage;
          Alcotest.test_case "round-trip" `Quick test_spec_roundtrip;
        ] );
      ( "injector",
        [
          Alcotest.test_case "spurious iteration limit" `Quick
            test_spurious_iteration_limit_fires;
          Alcotest.test_case "relax-and-fix root iteration limit" `Quick
            test_relax_and_fix_root_iteration_limit;
          Alcotest.test_case "forged infeasibility" `Quick
            test_forged_infeasibility_fires;
          Alcotest.test_case "mid-solve exception escapes simplex" `Quick
            test_injected_exception_escapes_simplex;
          Alcotest.test_case "perturbed pivots terminate" `Quick
            test_perturbed_pivots_still_terminate;
          Alcotest.test_case "deterministic per seed" `Quick
            test_injection_deterministic;
          Alcotest.test_case "draws safe across domains" `Quick
            test_injection_across_domains;
          Alcotest.test_case "milp converts fault, keeps incumbent" `Quick
            test_mid_solve_fault_keeps_milp_incumbent;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "expired budget stops simplex" `Quick
            test_simplex_expired_budget_stops;
        ] );
      ("ladder", ladder_tests);
    ]
