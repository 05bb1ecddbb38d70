(* Tests for the LP/MILP substrate: hand-checked LPs, brute-force
   cross-validation on random instances, and the paper's two-step
   relax-and-fix driver. *)

module Expr = Agingfp_lp.Expr
module Model = Agingfp_lp.Model
module Simplex = Agingfp_lp.Simplex
module Milp = Agingfp_lp.Milp
module Presolve = Agingfp_lp.Presolve
module Lp_format = Agingfp_lp.Lp_format
module Analyze = Agingfp_lp.Analyze
module Certify = Agingfp_lp.Certify
module Rng = Agingfp_util.Rng

let get_optimal = function
  | Simplex.Optimal s -> s
  | st -> Alcotest.failf "expected optimal, got %a" Simplex.pp_status st

let get_feasible = function
  | Milp.Feasible s -> s
  | r -> Alcotest.failf "expected feasible, got %a" Milp.pp_result r

let check_obj msg expected sol =
  Alcotest.(check (float 1e-6)) msg expected sol.Simplex.objective

(* ---------- Expr ---------- *)

let test_expr_algebra () =
  let e = Expr.add (Expr.var ~coef:2.0 0) (Expr.var ~coef:3.0 1) in
  let e = Expr.add_term e 1.0 0 in
  Alcotest.(check (float 0.)) "coef 0" 3.0 (Expr.coef e 0);
  Alcotest.(check (float 0.)) "coef 1" 3.0 (Expr.coef e 1);
  Alcotest.(check (float 0.)) "coef absent" 0.0 (Expr.coef e 5);
  let e2 = Expr.sub e (Expr.var ~coef:3.0 1) in
  Alcotest.(check int) "term dropped" 1 (List.length (Expr.terms e2))

let test_expr_eval () =
  let e = Expr.add (Expr.var ~coef:2.0 0) (Expr.const 5.0) in
  Alcotest.(check (float 0.)) "eval" 11.0 (Expr.eval (fun _ -> 3.0) e)

let test_expr_scale () =
  let e = Expr.scale 2.0 (Expr.add (Expr.var 0) (Expr.const 1.0)) in
  Alcotest.(check (float 0.)) "coef" 2.0 (Expr.coef e 0);
  Alcotest.(check (float 0.)) "const" 2.0 (Expr.constant e)

(* ---------- Simplex: textbook cases ---------- *)

(* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> obj 36 at (2,6) *)
let test_lp_dantzig () =
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m (Expr.var x) Model.Le 4.0);
  ignore (Model.add_constraint m (Expr.var ~coef:2.0 y) Model.Le 12.0);
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var ~coef:3.0 x) (Expr.var ~coef:2.0 y))
       Model.Le 18.0);
  Model.set_objective m Model.Maximize
    (Expr.add (Expr.var ~coef:3.0 x) (Expr.var ~coef:5.0 y));
  let s = get_optimal (Simplex.solve m) in
  check_obj "objective" 36.0 s;
  Alcotest.(check (float 1e-6)) "x" 2.0 s.values.(x);
  Alcotest.(check (float 1e-6)) "y" 6.0 s.values.(y)

(* min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> (1.6, 1.2), obj 2.8 *)
let test_lp_ge_rows () =
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore
    (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var ~coef:2.0 y)) Model.Ge 4.0);
  ignore
    (Model.add_constraint m (Expr.add (Expr.var ~coef:3.0 x) (Expr.var y)) Model.Ge 6.0);
  Model.set_objective m Model.Minimize (Expr.add (Expr.var x) (Expr.var y));
  let s = get_optimal (Simplex.solve m) in
  check_obj "objective" 2.8 s

(* Equality rows: min 2x + y s.t. x + y = 3, x - y = 1 -> x=2, y=1, obj 5 *)
let test_lp_eq_rows () =
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Eq 3.0);
  ignore (Model.add_constraint m (Expr.sub (Expr.var x) (Expr.var y)) Model.Eq 1.0);
  Model.set_objective m Model.Minimize (Expr.add (Expr.var ~coef:2.0 x) (Expr.var y));
  let s = get_optimal (Simplex.solve m) in
  check_obj "objective" 5.0 s;
  Alcotest.(check (float 1e-6)) "x" 2.0 s.values.(x)

let test_lp_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m (Expr.var x) Model.Le 1.0);
  ignore (Model.add_constraint m (Expr.var x) Model.Ge 2.0);
  match Simplex.solve m with
  | Simplex.Infeasible -> ()
  | st -> Alcotest.failf "expected infeasible, got %a" Simplex.pp_status st

let test_lp_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m (Expr.var x) Model.Ge 1.0);
  Model.set_objective m Model.Maximize (Expr.var x);
  match Simplex.solve m with
  | Simplex.Unbounded -> ()
  | st -> Alcotest.failf "expected unbounded, got %a" Simplex.pp_status st

let test_lp_bounded_vars () =
  (* Bounds are handled implicitly, not as rows. max x + y with
     x in [1, 2], y in [0, 3], x + y <= 4 -> obj 4 precisely. *)
  let m = Model.create () in
  let x = Model.add_var ~lb:1.0 ~ub:2.0 m in
  let y = Model.add_var ~lb:0.0 ~ub:3.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 4.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let s = get_optimal (Simplex.solve m) in
  check_obj "objective" 4.0 s

let test_lp_fixed_var () =
  let m = Model.create () in
  let x = Model.add_var ~ub:10.0 m and y = Model.add_var ~ub:10.0 m in
  Model.fix_var m x 3.0;
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 5.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let s = get_optimal (Simplex.solve m) in
  Alcotest.(check (float 1e-6)) "x pinned" 3.0 s.values.(x);
  check_obj "objective" 5.0 s

let test_lp_negative_rhs () =
  (* -x <= -2 i.e. x >= 2; min x -> 2. *)
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m (Expr.var ~coef:(-1.0) x) Model.Le (-2.0));
  Model.set_objective m Model.Minimize (Expr.var x);
  let s = get_optimal (Simplex.solve m) in
  check_obj "objective" 2.0 s

let test_lp_free_variable () =
  (* Free variable can go negative: min y s.t. y >= x - 4, x = 1 -> y = -3. *)
  let m = Model.create () in
  let x = Model.add_var m in
  let y = Model.add_var ~lb:neg_infinity m in
  ignore (Model.add_constraint m (Expr.var x) Model.Eq 1.0);
  ignore (Model.add_constraint m (Expr.sub (Expr.var y) (Expr.var x)) Model.Ge (-4.0));
  Model.set_objective m Model.Minimize (Expr.var y);
  let s = get_optimal (Simplex.solve m) in
  check_obj "objective" (-3.0) s

let test_lp_no_constraints () =
  let m = Model.create () in
  let x = Model.add_var ~lb:(-1.0) ~ub:5.0 m in
  Model.set_objective m Model.Maximize (Expr.var x);
  let s = get_optimal (Simplex.solve m) in
  check_obj "objective" 5.0 s

let test_lp_degenerate () =
  (* Degenerate vertex: several constraints meet at the optimum. *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 2.0);
  ignore (Model.add_constraint m (Expr.var x) Model.Le 2.0);
  ignore (Model.add_constraint m (Expr.var y) Model.Le 2.0);
  ignore
    (Model.add_constraint m (Expr.add (Expr.var ~coef:2.0 x) (Expr.var y)) Model.Le 4.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let s = get_optimal (Simplex.solve m) in
  check_obj "objective" 2.0 s

let test_lp_objective_constant () =
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m in
  ignore (Model.add_constraint m (Expr.var x) Model.Le 1.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.const 10.0));
  let s = get_optimal (Simplex.solve m) in
  check_obj "objective includes constant" 11.0 s

(* ---------- Simplex vs brute force on 2-variable LPs ---------- *)

(* Exact 2-var LP solver by vertex enumeration: intersect every pair
   of (constraint or bound) lines, keep feasible points, take best. *)
let brute_force_2var ~cons ~bounds ~obj =
  (* cons: (a, b, rel, c) meaning a*x + b*y rel c; bounds: (lo, hi) per var. *)
  let lines =
    List.concat
      [
        List.map (fun (a, b, _, c) -> (a, b, c)) cons;
        (let (l0, h0), (l1, h1) = bounds in
         [ (1.0, 0.0, l0); (1.0, 0.0, h0); (0.0, 1.0, l1); (0.0, 1.0, h1) ]);
      ]
  in
  let feasible (x, y) =
    let (l0, h0), (l1, h1) = bounds in
    x >= l0 -. 1e-7 && x <= h0 +. 1e-7 && y >= l1 -. 1e-7 && y <= h1 +. 1e-7
    && List.for_all
         (fun (a, b, rel, c) ->
           let v = (a *. x) +. (b *. y) in
           match rel with
           | Model.Le -> v <= c +. 1e-7
           | Model.Ge -> v >= c -. 1e-7
           | Model.Eq -> abs_float (v -. c) <= 1e-7)
         cons
  in
  let candidates = ref [] in
  List.iteri
    (fun i (a1, b1, c1) ->
      List.iteri
        (fun j (a2, b2, c2) ->
          if j > i then begin
            let det = (a1 *. b2) -. (a2 *. b1) in
            if abs_float det > 1e-9 then begin
              let x = ((c1 *. b2) -. (c2 *. b1)) /. det in
              let y = ((a1 *. c2) -. (a2 *. c1)) /. det in
              if feasible (x, y) then candidates := (x, y) :: !candidates
            end
          end)
        lines)
    lines;
  let ox, oy = obj in
  match !candidates with
  | [] -> None
  | cs ->
    Some
      (List.fold_left
         (fun acc (x, y) -> max acc ((ox *. x) +. (oy *. y)))
         neg_infinity cs)

let random_2var_lp seed =
  let rng = Rng.create seed in
  let ncons = 1 + Rng.int rng 5 in
  let cons =
    List.init ncons (fun _ ->
        let a = Rng.float rng 4.0 -. 2.0 in
        let b = Rng.float rng 4.0 -. 2.0 in
        let c = Rng.float rng 10.0 -. 2.0 in
        let rel = if Rng.int rng 4 = 0 then Model.Ge else Model.Le in
        (a, b, rel, c))
  in
  let bounds = ((0.0, 10.0), (0.0, 10.0)) in
  let obj = (Rng.float rng 4.0 -. 2.0, Rng.float rng 4.0 -. 2.0) in
  (cons, bounds, obj)

let prop_simplex_matches_brute_force =
  QCheck2.Test.make ~name:"simplex matches vertex enumeration on 2-var LPs"
    ~count:300 QCheck2.Gen.int (fun seed ->
      let cons, bounds, obj = random_2var_lp seed in
      let m = Model.create () in
      let (l0, h0), (l1, h1) = bounds in
      let x = Model.add_var ~lb:l0 ~ub:h0 m in
      let y = Model.add_var ~lb:l1 ~ub:h1 m in
      List.iter
        (fun (a, b, rel, c) ->
          ignore
            (Model.add_constraint m
               (Expr.add (Expr.var ~coef:a x) (Expr.var ~coef:b y))
               rel c))
        cons;
      let ox, oy = obj in
      Model.set_objective m Model.Maximize
        (Expr.add (Expr.var ~coef:ox x) (Expr.var ~coef:oy y));
      match (Simplex.solve m, brute_force_2var ~cons ~bounds ~obj) with
      | Simplex.Optimal s, Some best -> abs_float (s.objective -. best) < 1e-4
      | Simplex.Infeasible, None -> true
      | Simplex.Optimal s, None ->
        (* Brute force only samples vertices from line pairs; an LP
           feasible region can exist without such vertices only if it
           has interior — then brute force missed it. Accept when the
           simplex point is genuinely feasible. *)
        Model.check_feasible m (fun v -> s.values.(v)) = Ok ()
      | Simplex.Infeasible, Some _ -> false
      | (Simplex.Unbounded | Simplex.Iteration_limit | Simplex.Deadline | Simplex.Fault _), _
        -> false)

let prop_simplex_solution_feasible =
  QCheck2.Test.make ~name:"simplex solutions satisfy the model" ~count:300
    QCheck2.Gen.int (fun seed ->
      let cons, bounds, obj = random_2var_lp seed in
      let m = Model.create () in
      let (l0, h0), (l1, h1) = bounds in
      let x = Model.add_var ~lb:l0 ~ub:h0 m in
      let y = Model.add_var ~lb:l1 ~ub:h1 m in
      List.iter
        (fun (a, b, rel, c) ->
          ignore
            (Model.add_constraint m
               (Expr.add (Expr.var ~coef:a x) (Expr.var ~coef:b y))
               rel c))
        cons;
      let ox, oy = obj in
      Model.set_objective m Model.Maximize
        (Expr.add (Expr.var ~coef:ox x) (Expr.var ~coef:oy y));
      match Simplex.solve m with
      | Simplex.Optimal s -> Model.check_feasible m (fun v -> s.values.(v)) = Ok ()
      | Simplex.Infeasible -> true
      | Simplex.Unbounded | Simplex.Iteration_limit | Simplex.Deadline | Simplex.Fault _
        -> false)

(* Assignment-polytope shaped LP, like the per-context models of the
   floorplanner: n ops x m PEs, one-hot rows, capacity columns, a
   budget row. The relaxation must solve and respect every row. *)
let test_lp_assignment_shaped () =
  let rng = Rng.create 4242 in
  let nops = 12 and npes = 16 in
  let m = Model.create () in
  let x = Array.init nops (fun _ -> Array.init npes (fun _ -> Model.add_var ~ub:1.0 m)) in
  for i = 0 to nops - 1 do
    ignore
      (Model.add_constraint m
         (Expr.sum (List.init npes (fun k -> Expr.var x.(i).(k))))
         Model.Eq 1.0)
  done;
  for k = 0 to npes - 1 do
    ignore
      (Model.add_constraint m
         (Expr.sum (List.init nops (fun i -> Expr.var x.(i).(k))))
         Model.Le 1.0)
  done;
  let weights = Array.init nops (fun _ -> 0.1 +. Rng.float rng 0.5) in
  for k = 0 to npes - 1 do
    ignore
      (Model.add_constraint m
         (Expr.sum (List.init nops (fun i -> Expr.var ~coef:weights.(i) x.(i).(k))))
         Model.Le 0.6)
  done;
  Model.set_objective m Model.Minimize Expr.zero;
  match Simplex.solve m with
  | Simplex.Optimal s ->
    Alcotest.(check bool) "feasible point" true
      (Model.check_feasible m (fun v -> s.values.(v)) = Ok ())
  | st -> Alcotest.failf "expected optimal, got %a" Simplex.pp_status st

(* Classic cycling-prone instance (Beale): must terminate and find the
   optimum thanks to the Bland fallback. *)
let test_lp_beale_cycling () =
  let m = Model.create () in
  let x1 = Model.add_var m and x2 = Model.add_var m in
  let x3 = Model.add_var m and x4 = Model.add_var m in
  ignore
    (Model.add_constraint m
       (Expr.sum
          [ Expr.var ~coef:0.25 x1; Expr.var ~coef:(-8.0) x2;
            Expr.var ~coef:(-1.0) x3; Expr.var ~coef:9.0 x4 ])
       Model.Le 0.0);
  ignore
    (Model.add_constraint m
       (Expr.sum
          [ Expr.var ~coef:0.5 x1; Expr.var ~coef:(-12.0) x2;
            Expr.var ~coef:(-0.5) x3; Expr.var ~coef:3.0 x4 ])
       Model.Le 0.0);
  ignore (Model.add_constraint m (Expr.var x3) Model.Le 1.0);
  Model.set_objective m Model.Maximize
    (Expr.sum
       [ Expr.var ~coef:0.75 x1; Expr.var ~coef:(-20.0) x2;
         Expr.var ~coef:0.5 x3; Expr.var ~coef:(-6.0) x4 ]);
  match Simplex.solve m with
  | Simplex.Optimal s -> Alcotest.(check (float 1e-6)) "Beale optimum" 1.25 s.objective
  | st -> Alcotest.failf "expected optimal, got %a" Simplex.pp_status st

(* ---------- LP oracle: strong duality ---------- *)

(* Random multi-variable LP with sparse rows — wider than the 2-var
   instances, so the LU factors actually pivot, fill, and absorb
   etas. Every variable lies in a finite box [0, u], so every instance
   is either infeasible or has an optimum. *)
let random_sparse_lp seed =
  let rng = Rng.create seed in
  let nvars = 3 + Rng.int rng 8 in
  let m = Model.create () in
  let vars =
    Array.init nvars (fun _ -> Model.add_var ~ub:(1.0 +. Rng.float rng 9.0) m)
  in
  for _ = 1 to 2 + Rng.int rng 7 do
    let terms = ref [] in
    Array.iter
      (fun v ->
        if Rng.int rng 3 > 0 then
          terms := Expr.var ~coef:(Rng.float rng 4.0 -. 2.0) v :: !terms)
      vars;
    match !terms with
    | [] -> ()
    | ts ->
      let rel =
        match Rng.int rng 6 with 0 -> Model.Ge | 1 -> Model.Eq | _ -> Model.Le
      in
      ignore (Model.add_constraint m (Expr.sum ts) rel (Rng.float rng 12.0 -. 2.0))
  done;
  Model.set_objective m Model.Maximize
    (Expr.sum
       (Array.to_list
          (Array.map (fun v -> Expr.var ~coef:(Rng.float rng 4.0 -. 2.0) v) vars)));
  m

(* The explicit dual of a [random_sparse_lp] instance, built as a
   model of its own. The primal is max c·x over the rows
   a_i·x (<=, >=, =) b_i and the box 0 <= x <= u. Each upper bound
   becomes a dual column w_j >= 0, so the dual is
   min b·y + u·w  s.t.  Aᵀy + w >= c,
   with y_i >= 0 on <= rows, y_i <= 0 on >= rows and y_i free on =
   rows. y = 0, w = max(c, 0) is always feasible, so the dual is
   unbounded exactly when the primal is infeasible, and otherwise its
   optimum equals the primal's. *)
let explicit_dual primal =
  let d = Model.create () in
  let n = Model.num_vars primal in
  let cols = Array.make n [] and obj = ref [] in
  Model.iter_constraints primal (fun _ lhs rel rhs ->
      let lb, ub =
        match rel with
        | Model.Le -> (0.0, infinity)
        | Model.Ge -> (neg_infinity, 0.0)
        | Model.Eq -> (neg_infinity, infinity)
      in
      let y = Model.add_var ~lb ~ub d in
      obj := Expr.var ~coef:rhs y :: !obj;
      List.iter (fun (v, a) -> cols.(v) <- Expr.var ~coef:a y :: cols.(v)) (Expr.terms lhs));
  let dir, c = Model.objective primal in
  assert (dir = Model.Maximize);
  for v = 0 to n - 1 do
    assert (Float.equal (Model.var_lb primal v) 0.0);
    let w = Model.add_var d in
    obj := Expr.var ~coef:(Model.var_ub primal v) w :: !obj;
    ignore
      (Model.add_constraint d (Expr.sum (Expr.var w :: cols.(v))) Model.Ge (Expr.coef c v))
  done;
  Model.set_objective d Model.Minimize (Expr.sum !obj);
  d

let prop_lp_strong_duality =
  QCheck2.Test.make ~name:"LP optimum equals the optimum of its explicit dual"
    ~count:300 QCheck2.Gen.int (fun seed ->
      let m = random_sparse_lp seed in
      match (Simplex.solve m, Simplex.solve (explicit_dual m)) with
      | Simplex.Optimal p, Simplex.Optimal d ->
        abs_float (p.Simplex.objective -. d.Simplex.objective) < 1e-6
        && Certify.solution m p = Certify.Certified
      | Simplex.Infeasible, Simplex.Unbounded -> true
      | _ -> false)

let test_kernel_counters () =
  let m = random_sparse_lp 20240805 in
  let nrows = Model.num_constraints m in
  Alcotest.(check bool) "instance has rows" true (nrows > 0);
  let st = Simplex.assemble m in
  (match Simplex.solve_state st with
  | Simplex.Optimal _ | Simplex.Infeasible -> ()
  | s -> Alcotest.failf "unexpected status %a" Simplex.pp_status s);
  let s = Simplex.state_stats st in
  Alcotest.(check int) "one cold solve" 1 s.Simplex.cold_solves;
  Alcotest.(check bool) "factorized at least once" true (s.Simplex.refactorizations >= 1);
  Alcotest.(check bool) "pivoted" true (s.Simplex.lp_iterations > 0);
  Alcotest.(check bool) "fill tracked" true (s.Simplex.fill_in > 0)

(* ---------- Presolve ---------- *)

let get_reduced = function
  | Presolve.Reduced t -> t
  | Presolve.Proven_infeasible r -> Alcotest.failf "unexpected infeasibility: %s" r

let test_presolve_singleton_row () =
  (* 2x <= 8 becomes the bound x <= 4; the row disappears. *)
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m (Expr.var ~coef:2.0 x) Model.Le 8.0);
  Model.set_objective m Model.Maximize (Expr.var x);
  let t = get_reduced (Presolve.run m) in
  let red = Presolve.reductions t in
  Alcotest.(check bool) "singleton row counted" true (red.Presolve.singleton_rows >= 1);
  Alcotest.(check int) "no rows left" 0 (Model.num_constraints (Presolve.reduced t));
  let s = get_optimal (Simplex.solve (Presolve.reduced t)) in
  let values = Presolve.postsolve t s.Simplex.values in
  Alcotest.(check (float 1e-6)) "x at implied bound" 4.0 values.(x);
  Alcotest.(check bool) "feasible on original" true
    (Model.check_feasible m (fun v -> values.(v)) = Ok ())

let test_presolve_fixed_substitution () =
  (* 3x = 6 pins x = 2; the second row shrinks to a bound on y. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:10.0 m and y = Model.add_var ~ub:10.0 m in
  ignore (Model.add_constraint m (Expr.var ~coef:3.0 x) Model.Eq 6.0);
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 5.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let t = get_reduced (Presolve.run m) in
  let red = Presolve.reductions t in
  Alcotest.(check bool) "x fixed" true (red.Presolve.vars_fixed >= 1);
  let s = get_optimal (Simplex.solve (Presolve.reduced t)) in
  (* Objective of the reduced model folds in the fixed contribution. *)
  check_obj "objective carries fixed part" 5.0 s;
  let values = Presolve.postsolve t s.Simplex.values in
  Alcotest.(check (float 1e-6)) "x restored" 2.0 values.(x);
  Alcotest.(check bool) "feasible on original" true
    (Model.check_feasible m (fun v -> values.(v)) = Ok ())

let test_presolve_redundant_row () =
  (* x, y in [0,1]: x + y <= 5 can never bind. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m and y = Model.add_var ~ub:1.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 5.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "row removed" true
    ((Presolve.reductions t).Presolve.rows_removed >= 1);
  Alcotest.(check int) "no rows left" 0 (Model.num_constraints (Presolve.reduced t))

let test_presolve_forcing_row () =
  (* x + y <= 0 with x, y >= 0 forces both to zero. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m and y = Model.add_var ~ub:1.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 0.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "both fixed" true ((Presolve.reductions t).Presolve.vars_fixed >= 2);
  let s = get_optimal (Simplex.solve (Presolve.reduced t)) in
  let values = Presolve.postsolve t s.Simplex.values in
  Alcotest.(check (float 0.)) "x = 0" 0.0 values.(x);
  Alcotest.(check (float 0.)) "y = 0" 0.0 values.(y)

let test_presolve_probing () =
  (* One-hot a + b + c = 1 with b + c >= 1: setting a = 1 zeroes its
     row-mates and contradicts the second row, so probing fixes a = 0. *)
  let m = Model.create () in
  let a = Model.add_binary m and b = Model.add_binary m and c = Model.add_binary m in
  ignore
    (Model.add_constraint m (Expr.sum [ Expr.var a; Expr.var b; Expr.var c ]) Model.Eq 1.0);
  ignore (Model.add_constraint m (Expr.add (Expr.var b) (Expr.var c)) Model.Ge 1.0);
  Model.set_objective m Model.Maximize
    (Expr.sum [ Expr.var ~coef:5.0 a; Expr.var b; Expr.var c ]);
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "probe fixed a" true
    ((Presolve.reductions t).Presolve.probe_fixings >= 1);
  let params = { Milp.default_params with first_solution = false } in
  let s = get_feasible (Milp.solve ~params (Presolve.reduced t)) in
  let values = Presolve.postsolve t s.Simplex.values in
  Alcotest.(check (float 0.)) "a = 0" 0.0 values.(a);
  Alcotest.(check (float 1e-6)) "objective" 1.0 s.Simplex.objective;
  Alcotest.(check bool) "feasible on original" true
    (Model.check_feasible m (fun v -> values.(v)) = Ok ())

let test_presolve_detects_infeasible () =
  (* x <= 1 as a bound but a row demands x >= 2. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m in
  ignore (Model.add_constraint m (Expr.var x) Model.Ge 2.0);
  match Presolve.run m with
  | Presolve.Proven_infeasible _ -> ()
  | Presolve.Reduced _ -> Alcotest.fail "expected Proven_infeasible"

let build_2var_lp ?bounds:(b' = None) (cons, bounds, obj) =
  let bounds = match b' with Some b -> b | None -> bounds in
  let m = Model.create () in
  let (l0, h0), (l1, h1) = bounds in
  let x = Model.add_var ~lb:l0 ~ub:h0 m in
  let y = Model.add_var ~lb:l1 ~ub:h1 m in
  List.iter
    (fun (a, b, rel, c) ->
      ignore
        (Model.add_constraint m
           (Expr.add (Expr.var ~coef:a x) (Expr.var ~coef:b y))
           rel c))
    cons;
  let ox, oy = obj in
  Model.set_objective m Model.Maximize
    (Expr.add (Expr.var ~coef:ox x) (Expr.var ~coef:oy y));
  m

let prop_presolve_lp_roundtrip =
  QCheck2.Test.make ~name:"presolve -> solve -> postsolve matches direct solve"
    ~count:300 QCheck2.Gen.int (fun seed ->
      let spec = random_2var_lp seed in
      let m = build_2var_lp spec in
      let direct = Simplex.solve (build_2var_lp spec) in
      match Presolve.run m with
      | Presolve.Proven_infeasible _ -> direct = Simplex.Infeasible
      | Presolve.Reduced t -> (
        match (Simplex.solve (Presolve.reduced t), direct) with
        | Simplex.Optimal s, Simplex.Optimal d ->
          let values = Presolve.postsolve t s.Simplex.values in
          abs_float (s.objective -. d.objective) < 1e-6
          && Model.check_feasible m (fun v -> values.(v)) = Ok ()
        | Simplex.Infeasible, Simplex.Infeasible -> true
        | _ -> false))

(* ---------- Simplex warm start ---------- *)

let prop_reoptimize_bound_change_matches_cold =
  (* B&B-style usage: solve, branch on x's value, re-solve warm from
     the parent basis; a cold solve of the modified model must agree. *)
  QCheck2.Test.make ~name:"warm reoptimize after bound change matches cold solve"
    ~count:200 QCheck2.Gen.int (fun seed ->
      let ((_, bounds, _) as spec) = random_2var_lp seed in
      let st = Simplex.assemble (build_2var_lp spec) in
      match Simplex.solve_state st with
      | Simplex.Optimal s ->
        let v = s.Simplex.values.(0) in
        let (l0, h0), b1 = bounds in
        let bounds' =
          if seed land 1 = 0 then ((l0, Float.of_int (int_of_float v)), b1)
          else ((Float.of_int (int_of_float (ceil v)), h0), b1)
        in
        let ((l0', h0'), _) = bounds' in
        Simplex.set_var_bounds st 0 ~lb:l0' ~ub:h0';
        let warm = Simplex.reoptimize st in
        let cold = Simplex.solve (build_2var_lp ~bounds:(Some bounds') spec) in
        (match (warm, cold) with
        | Simplex.Optimal w, Simplex.Optimal c ->
          abs_float (w.Simplex.objective -. c.Simplex.objective) < 1e-6
        | Simplex.Infeasible, Simplex.Infeasible -> true
        | _ -> false)
      | Simplex.Infeasible -> true
      | _ -> false)

let prop_reoptimize_rhs_change_matches_cold =
  (* Remap-style usage: only the stress-budget RHS moves between
     solves; the assembled state is reused with [set_rhs]. *)
  QCheck2.Test.make ~name:"warm reoptimize after rhs change matches cold solve"
    ~count:200 QCheck2.Gen.int (fun seed ->
      let ((cons, bounds, obj) as spec) = random_2var_lp seed in
      match cons with
      | [] -> true
      | (a, b, rel, c) :: rest ->
        let st = Simplex.assemble (build_2var_lp spec) in
        (match Simplex.solve_state st with
        | Simplex.Optimal _ ->
          let delta = if rel = Model.Le then -1.0 else 1.0 in
          let c' = c +. delta in
          Simplex.set_rhs st 0 c';
          let fallbacks0 = (Simplex.state_stats st).Simplex.warm_fallbacks in
          let warm = Simplex.reoptimize st in
          let fell_back = (Simplex.state_stats st).Simplex.warm_fallbacks > fallbacks0 in
          let cold = Simplex.solve (build_2var_lp ((a, b, rel, c') :: rest, bounds, obj)) in
          (* A warm fallback is a cold restart on the edited state: it
             must reproduce a fresh cold solve exactly. *)
          (match (warm, cold) with
          | Simplex.Optimal w, Simplex.Optimal cs when fell_back ->
            Array.for_all2 Float.equal w.Simplex.values cs.Simplex.values
          | Simplex.Optimal w, Simplex.Optimal cs ->
            abs_float (w.Simplex.objective -. cs.Simplex.objective) < 1e-6
          | Simplex.Infeasible, Simplex.Infeasible -> true
          | _ -> false)
        | Simplex.Infeasible -> true
        | _ -> false))

(* ---------- Simplex: dual-restore cycle exit ---------- *)

(* Found by a seeded search over small boxed LPs: min 2x + 3y + 2z over
   x <= 3, y <= 2, z <= 1 with -x - 2y - 2z <= [rhs0] and
   2x + 2y + z >= 1. After the first row's rhs moves from -2 to -4,
   the dual restore from the old optimum (z = 1, x basic at 0) flips y
   up to 2 to repair one basic row and back to 0 to repair the other,
   with no pivot in between, so after two steps its state repeats
   exactly. *)
let cycling_lp ~rhs0 =
  let m = Model.create () in
  let x = Model.add_var ~ub:3.0 m in
  let y = Model.add_var ~ub:2.0 m in
  let z = Model.add_var ~ub:1.0 m in
  let lin terms = Expr.sum (List.map (fun (c, v) -> Expr.var ~coef:c v) terms) in
  ignore (Model.add_constraint m (lin [ (-1.0, x); (-2.0, y); (-2.0, z) ]) Model.Le rhs0);
  ignore (Model.add_constraint m (lin [ (2.0, x); (2.0, y); (1.0, z) ]) Model.Ge 1.0);
  Model.set_objective m Model.Maximize (lin [ (-2.0, x); (-3.0, y); (-2.0, z) ]);
  m

let test_reoptimize_cycle_exit () =
  let model = cycling_lp ~rhs0:(-2.0) in
  let st = Simplex.assemble model in
  ignore (get_optimal (Simplex.solve_state st));
  Simplex.set_rhs st 0 (-4.0);
  let s0 = Simplex.state_stats st in
  let warm = get_optimal (Simplex.reoptimize st) in
  let s1 = Simplex.state_stats st in
  let cold = get_optimal (Simplex.solve (cycling_lp ~rhs0:(-4.0))) in
  Alcotest.(check bool) "values equal the fresh cold solve's bit for bit" true
    (Array.for_all2 Float.equal warm.Simplex.values cold.Simplex.values);
  Alcotest.(check int) "one warm fallback" 1
    (s1.Simplex.warm_fallbacks - s0.Simplex.warm_fallbacks);
  (* Without the cycle exit the restore runs to its 4(m + 1) + 200
     iteration cap before the cold restart. *)
  let cap = (4 * (Model.num_constraints model + 1)) + 200 in
  let used = s1.Simplex.lp_iterations - s0.Simplex.lp_iterations in
  if used >= cap then Alcotest.failf "used %d LP iterations, cap %d" used cap

(* ---------- Simplex row-major pricing mirror ---------- *)

(* The mirror must match the column store after assembly, and the
   mirrored pivot rows and reduced costs must equal the column-wise
   products bit for bit against the factors of a cold solve and of
   warm re-solves after bound edits ([Simplex.check_row_mirror]
   raises otherwise). *)
let prop_row_mirror_matches_columns =
  QCheck2.Test.make ~name:"row-major pricing mirror matches the column store exactly"
    ~count:200 QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 10 and m = 2 + Rng.int rng 8 in
      let model = Model.create () in
      let vars =
        Array.init n (fun _ -> Model.add_var ~ub:(1.0 +. Rng.float rng 9.0) model)
      in
      for _ = 1 to m do
        let lhs =
          Array.fold_left
            (fun e v ->
              if Rng.int rng 3 = 0 then Expr.add_term e (Rng.float rng 4.0 -. 2.0) v else e)
            Expr.zero vars
        in
        let rel = match Rng.int rng 3 with 0 -> Model.Le | 1 -> Model.Ge | _ -> Model.Eq in
        ignore (Model.add_constraint model lhs rel (Rng.float rng 10.0 -. 2.0))
      done;
      Model.set_objective model Model.Maximize
        (Array.fold_left
           (fun e v -> Expr.add_term e (Rng.float rng 4.0 -. 2.0) v)
           Expr.zero vars);
      let st = Simplex.assemble model in
      Simplex.check_row_mirror st;
      ignore (Simplex.solve_state st);
      Simplex.check_row_mirror st;
      for _ = 1 to 3 do
        let v = vars.(Rng.int rng n) in
        Simplex.set_var_bounds st v ~lb:0.0 ~ub:(Rng.float rng 1.0);
        ignore (Simplex.reoptimize st);
        Simplex.check_row_mirror st
      done;
      true)

let test_reoptimize_restored_bounds_interior () =
  (* B&B unwind regression: max 2x + y, x,y in [0,10], x + y <= 12.
     Cold optimum is x = 10 (nonbasic at ub). Tightening x to [0,4]
     clamps the nonbasic to 4; restoring [0,10] then leaves it
     strictly between its bounds, so the next warm solve must step x
     by its distance to the bound (6), not the full range (10) —
     the latter drove x to 12 > ub and certified an infeasible point. *)
  let build () =
    let m = Model.create () in
    let x = Model.add_var ~ub:10.0 m in
    let y = Model.add_var ~ub:10.0 m in
    ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 12.0);
    Model.set_objective m Model.Maximize (Expr.add (Expr.var ~coef:2.0 x) (Expr.var y));
    m
  in
  let m = build () in
  let st = Simplex.assemble m in
  let s = get_optimal (Simplex.solve_state st) in
  Alcotest.(check (float 1e-6)) "cold objective" 22.0 s.Simplex.objective;
  Simplex.set_var_bounds st 0 ~lb:0.0 ~ub:4.0;
  let s = get_optimal (Simplex.reoptimize st) in
  Alcotest.(check (float 1e-6)) "tightened objective" 16.0 s.Simplex.objective;
  Simplex.set_var_bounds st 0 ~lb:0.0 ~ub:10.0;
  let s = get_optimal (Simplex.reoptimize st) in
  Alcotest.(check (float 1e-6)) "restored objective" 22.0 s.Simplex.objective;
  Alcotest.(check bool) "restored solution feasible" true
    (Model.check_feasible m (fun v -> s.Simplex.values.(v)) = Ok ())

(* ---------- MILP ---------- *)

let test_milp_knapsack () =
  (* max 10a + 6b + 4c s.t. a+b+c <= 2 (binaries) -> 16. *)
  let m = Model.create () in
  let a = Model.add_binary m and b = Model.add_binary m and c = Model.add_binary m in
  ignore
    (Model.add_constraint m
       (Expr.sum [ Expr.var a; Expr.var b; Expr.var c ])
       Model.Le 2.0);
  Model.set_objective m Model.Maximize
    (Expr.sum [ Expr.var ~coef:10.0 a; Expr.var ~coef:6.0 b; Expr.var ~coef:4.0 c ]);
  let params = { Milp.default_params with first_solution = false } in
  let s = get_feasible (Milp.solve ~params m) in
  Alcotest.(check (float 1e-6)) "objective" 16.0 s.objective

let test_milp_fractional_lp_integer_gap () =
  (* LP relaxation is fractional; ILP optimum differs.
     max x + y s.t. 2x + 2y <= 3, binaries -> LP 1.5, ILP 1. *)
  let m = Model.create () in
  let x = Model.add_binary m and y = Model.add_binary m in
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var ~coef:2.0 x) (Expr.var ~coef:2.0 y))
       Model.Le 3.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let params = { Milp.default_params with first_solution = false } in
  let s = get_feasible (Milp.solve ~params m) in
  Alcotest.(check (float 1e-6)) "ILP optimum" 1.0 s.objective

let test_milp_infeasible () =
  let m = Model.create () in
  let x = Model.add_binary m and y = Model.add_binary m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Ge 3.0);
  match Milp.solve m with
  | Milp.Infeasible -> ()
  | r -> Alcotest.failf "expected infeasible, got %a" Milp.pp_result r

let test_milp_assignment () =
  (* 3x3 assignment: each row/col exactly one. Feasibility with null
     objective — the paper's formulation shape. *)
  let m = Model.create () in
  let v = Array.init 3 (fun _ -> Array.init 3 (fun _ -> Model.add_binary m)) in
  for i = 0 to 2 do
    ignore
      (Model.add_constraint m (Expr.sum (List.init 3 (fun j -> Expr.var v.(i).(j)))) Model.Eq 1.0);
    ignore
      (Model.add_constraint m (Expr.sum (List.init 3 (fun j -> Expr.var v.(j).(i)))) Model.Eq 1.0)
  done;
  let s = get_feasible (Milp.solve m) in
  Alcotest.(check unit) "valid"
    (match Model.check_feasible m (fun x -> s.values.(x)) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)
    ()

let test_relax_and_fix_matches_bb () =
  let build () =
    let m = Model.create () in
    let xs = Array.init 6 (fun _ -> Model.add_binary m) in
    ignore
      (Model.add_constraint m
         (Expr.sum (Array.to_list (Array.map Expr.var xs)))
         Model.Eq 3.0);
    ignore
      (Model.add_constraint m
         (Expr.sum [ Expr.var xs.(0); Expr.var xs.(1) ])
         Model.Le 1.0);
    Model.set_objective m Model.Maximize
      (Expr.sum (Array.to_list (Array.mapi (fun i x -> Expr.var ~coef:(float_of_int (i + 1)) x) xs)));
    m
  in
  let params = { Milp.default_params with first_solution = false } in
  let s1 = get_feasible (Milp.solve ~params (build ())) in
  let s2 = get_feasible (Milp.relax_and_fix ~params (build ())) in
  Alcotest.(check (float 1e-6)) "same optimum" s1.objective s2.objective

(* A one-hot row whose members each sit in a knapsack row they cannot
   reach 1 in: the LP relaxation is feasible (every member at 1/3),
   but presolve's bound tightening rounds every member to 0. *)
let starved_one_hot_model () =
  let m = Model.create () in
  let xs = Array.init 3 (fun _ -> Model.add_binary m) in
  ignore
    (Model.add_constraint ~name:"onehot" m
       (Expr.sum (Array.to_list (Array.map Expr.var xs)))
       Model.Eq 1.0);
  Array.iter
    (fun x ->
      let y = Model.add_var ~ub:1.0 m in
      ignore
        (Model.add_constraint m (Expr.add (Expr.var ~coef:5.0 x) (Expr.var y)) Model.Le 3.0))
    xs;
  Model.set_objective m Model.Maximize (Expr.var xs.(0));
  m

let test_relax_and_fix_presolve_refutes () =
  let m = starved_one_hot_model () in
  (match Simplex.solve m with
  | Simplex.Optimal _ -> ()
  | st -> Alcotest.failf "LP relaxation should be feasible, got %a" Simplex.pp_status st);
  let r, s = Milp.relax_and_fix_with_stats m in
  (match r with
  | Milp.Infeasible -> ()
  | r -> Alcotest.failf "expected infeasible, got %a" Milp.pp_result r);
  Alcotest.(check int) "no root LP" 0 s.Milp.cold_solves;
  Alcotest.(check int) "no LP iterations" 0 s.Milp.lp_iterations

let test_relax_and_fix_over_constrained () =
  (* max 3x + y + z with y + z <= 1.5 and y + z >= 1.5x: the LP
     optimum has x = 1, so relax-and-fix pre-maps x to 1, which leaves
     no integer point (y + z would have to be 1.5); the unfixed model
     is feasible (x = 0) and must be found by the fallback search. *)
  let m = Model.create () in
  let x = Model.add_binary m and y = Model.add_binary m and z = Model.add_binary m in
  let yz = Expr.add (Expr.var y) (Expr.var z) in
  ignore (Model.add_constraint m yz Model.Le 1.5);
  ignore (Model.add_constraint m (Expr.add yz (Expr.var ~coef:(-1.5) x)) Model.Ge 0.0);
  Model.set_objective m Model.Maximize
    (Expr.sum [ Expr.var ~coef:3.0 x; Expr.var y; Expr.var z ]);
  let lp = get_optimal (Simplex.solve m) in
  Alcotest.(check bool) "LP pre-maps x" true (lp.values.(x) > 0.95);
  let params = { Milp.default_params with first_solution = false } in
  let s1 = get_feasible (Milp.solve ~params m) in
  let s2 = get_feasible (Milp.relax_and_fix ~params m) in
  Alcotest.(check (float 1e-6)) "same objective" s1.objective s2.objective;
  Alcotest.(check (float 1e-6)) "x off" 0.0 s2.values.(x)

let test_milp_mixed_integer_continuous () =
  (* max 2x + y with x binary, y continuous <= 1.5, x + y <= 2. *)
  let m = Model.create () in
  let x = Model.add_binary m in
  let y = Model.add_var ~ub:1.5 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 2.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var ~coef:2.0 x) (Expr.var y));
  let params = { Milp.default_params with first_solution = false } in
  let s = get_feasible (Milp.solve ~params m) in
  Alcotest.(check (float 1e-6)) "objective" 3.0 s.objective;
  Alcotest.(check (float 1e-6)) "x integral" 1.0 s.values.(x)

let test_milp_stats_warm_branching () =
  (* A knapsack with a fractional LP vertex: the search must branch,
     and every node after the root must reuse the warm state. *)
  let m = Model.create () in
  let w = [| 5.0; 7.0; 11.0; 13.0; 3.0; 17.0; 19.0; 23.0; 9.0; 15.0 |] in
  let xs = Array.map (fun _ -> Model.add_binary m) w in
  let total = Array.fold_left ( +. ) 0.0 w in
  ignore
    (Model.add_constraint m
       (Expr.sum (Array.to_list (Array.mapi (fun i x -> Expr.var ~coef:w.(i) x) xs)))
       Model.Le (total /. 2.0));
  Model.set_objective m Model.Maximize
    (Expr.sum
       (Array.to_list
          (Array.mapi (fun i x -> Expr.var ~coef:(w.(i) +. float_of_int (i mod 3)) x) xs)));
  (* Root heuristics would close this instance at the root; this test
     is about the branching machinery, so pin them off. *)
  let params =
    { Milp.default_params with first_solution = false; heuristics = false }
  in
  let result, stats = Milp.solve_with_stats ~params m in
  let s = get_feasible result in
  Alcotest.(check bool) "search branched" true (stats.Milp.nodes > 1);
  Alcotest.(check bool) "warm solves happened" true (stats.Milp.warm_solves > 0);
  Alcotest.(check bool) "iterations counted" true (stats.Milp.lp_iterations > 0);
  Array.iter
    (fun v ->
      let x = s.Simplex.values.(v) in
      Alcotest.(check (float 0.)) "exactly integral" (Float.round x) x)
    xs

let prop_milp_modes_agree =
  (* Presolve + warm start are pure accelerations: switching both off
     must not change the optimum, and the returned incumbent must be
     feasible for and exactly integral in the original model. *)
  QCheck2.Test.make ~name:"presolve/warm-start do not change the B&B optimum"
    ~count:120 QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let nvars = 3 + Rng.int rng 5 in
      let ncons = 1 + Rng.int rng 4 in
      let cons =
        List.init ncons (fun _ ->
            let coefs = List.init nvars (fun v -> (v, float_of_int (Rng.int rng 7 - 3))) in
            let rhs = float_of_int (Rng.int rng 8 - 2) in
            let rel = if Rng.int rng 3 = 0 then Model.Ge else Model.Le in
            (coefs, rel, rhs))
      in
      let obj = List.init nvars (fun v -> (v, float_of_int (Rng.int rng 11 - 5))) in
      let build () =
        let m = Model.create () in
        let vars = Array.init nvars (fun _ -> Model.add_binary m) in
        List.iter
          (fun (coefs, rel, rhs) ->
            let lhs = Expr.sum (List.map (fun (v, c) -> Expr.var ~coef:c vars.(v)) coefs) in
            ignore (Model.add_constraint m lhs rel rhs))
          cons;
        Model.set_objective m Model.Maximize
          (Expr.sum (List.map (fun (v, c) -> Expr.var ~coef:c vars.(v)) obj));
        m
      in
      let fast = { Milp.default_params with first_solution = false } in
      let plain = { fast with Milp.presolve = false; warm_start = false } in
      let m = build () in
      match (Milp.solve ~params:fast m, Milp.solve ~params:plain (build ())) with
      | Milp.Feasible a, Milp.Feasible b ->
        abs_float (a.Simplex.objective -. b.Simplex.objective) < 1e-6
        && Model.check_feasible m (fun v -> a.Simplex.values.(v)) = Ok ()
        && List.for_all
             (fun v ->
               let x = a.Simplex.values.(v) in
               x = Float.round x)
             (Model.integer_vars m)
      | Milp.Infeasible, Milp.Infeasible -> true
      | _ -> false)

(* Brute force 0/1 enumeration for small random ILPs. *)
let brute_force_ilp nvars cons obj =
  let best = ref None in
  for mask = 0 to (1 lsl nvars) - 1 do
    let value v = if mask land (1 lsl v) <> 0 then 1.0 else 0.0 in
    let ok =
      List.for_all
        (fun (coefs, rel, rhs) ->
          let lhs = List.fold_left (fun acc (v, c) -> acc +. (c *. value v)) 0.0 coefs in
          match rel with
          | Model.Le -> lhs <= rhs +. 1e-9
          | Model.Ge -> lhs >= rhs -. 1e-9
          | Model.Eq -> abs_float (lhs -. rhs) <= 1e-9)
        cons
    in
    if ok then begin
      let o = List.fold_left (fun acc (v, c) -> acc +. (c *. value v)) 0.0 obj in
      match !best with Some b when b >= o -> () | _ -> best := Some o
    end
  done;
  !best

(* A binary Maximize model over [nvars] variables built from raw
   rows, returned with that data so 0/1 enumeration can solve the same
   instance. *)
let binary_ilp nvars cons obj =
  let m = Model.create () in
  let vars = Array.init nvars (fun _ -> Model.add_binary m) in
  let lin coefs = Expr.sum (List.map (fun (v, c) -> Expr.var ~coef:c vars.(v)) coefs) in
  List.iter (fun (coefs, rel, rhs) -> ignore (Model.add_constraint m (lin coefs) rel rhs)) cons;
  Model.set_objective m Model.Maximize (lin obj);
  (m, nvars, cons, obj)

(* A random small binary Maximize model with dense rows of mixed
   sign. *)
let random_binary_ilp rng =
  let nvars = 3 + Rng.int rng 5 in
  let ncons = 1 + Rng.int rng 4 in
  let cons =
    List.init ncons (fun _ ->
        let coefs = List.init nvars (fun v -> (v, float_of_int (Rng.int rng 7 - 3))) in
        let rhs = float_of_int (Rng.int rng 8 - 2) in
        let rel = if Rng.int rng 3 = 0 then Model.Ge else Model.Le in
        (coefs, rel, rhs))
  in
  let obj = List.init nvars (fun v -> (v, float_of_int (Rng.int rng 11 - 5))) in
  binary_ilp nvars cons obj

let int_between rng lo hi = float_of_int (lo + Rng.int rng (hi - lo + 1))

(* Set cover: 8-16 sets, 4-8 elements, each element covered once or
   twice by the sets that hold it; minimize the integer set costs
   (maximize their negation). An element that no set holds makes the
   instance infeasible. *)
let set_cover_ilp rng =
  let nvars = 8 + Rng.int rng 9 in
  let elements = 4 + Rng.int rng 5 in
  let cons =
    List.init elements (fun _ ->
        let holders = List.filter (fun _ -> Rng.int rng 4 = 0) (List.init nvars Fun.id) in
        (List.map (fun v -> (v, 1.0)) holders, Model.Ge, int_between rng 1 2))
  in
  let obj = List.init nvars (fun v -> (v, -.int_between rng 1 9)) in
  binary_ilp nvars cons obj

(* Multi-knapsack: 8-16 items, 2-4 capacity rows with integer weights
   and capacities near half the row's total weight; maximize integer
   profits. *)
let multi_knapsack_ilp rng =
  let nvars = 8 + Rng.int rng 9 in
  let rows = 2 + Rng.int rng 3 in
  let cons =
    List.init rows (fun _ ->
        let coefs = List.init nvars (fun v -> (v, int_between rng 1 9)) in
        let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 coefs in
        (coefs, Model.Le, Float.round (total *. (0.3 +. Rng.float rng 0.4))))
  in
  let obj = List.init nvars (fun v -> (v, int_between rng 1 20)) in
  binary_ilp nvars cons obj

(* Assignment with side rows: 2-4 agents each take exactly one of 2-4
   tasks (at most 16 binaries), every task takes at most 1 or 2
   agents, and 1-2 integer side rows (a budget [<=] or a quota [>=])
   cut across the assignment; maximize integer scores of either
   sign. *)
let assignment_ilp rng =
  let agents = 2 + Rng.int rng 3 and tasks = 2 + Rng.int rng 3 in
  let x a t = (a * tasks) + t in
  let nvars = agents * tasks in
  let one_task =
    List.init agents (fun a -> (List.init tasks (fun t -> (x a t, 1.0)), Model.Eq, 1.0))
  in
  let task_cap =
    List.init tasks (fun t ->
        (List.init agents (fun a -> (x a t, 1.0)), Model.Le, int_between rng 1 2))
  in
  let side =
    List.init (1 + Rng.int rng 2) (fun _ ->
        let coefs = List.init nvars (fun v -> (v, int_between rng 0 6)) in
        if Rng.bool rng then (coefs, Model.Le, int_between rng 3 (3 * agents))
        else (coefs, Model.Ge, int_between rng 1 (2 * agents)))
  in
  let obj = List.init nvars (fun v -> (v, int_between rng (-5) 10)) in
  binary_ilp nvars (one_task @ task_cap @ side) obj

(* The input of the 0/1-enumeration oracles: the dense random family
   plus three structured ones, each at most 16 binaries. *)
let oracle_ilp rng =
  match Rng.int rng 4 with
  | 0 -> random_binary_ilp rng
  | 1 -> set_cover_ilp rng
  | 2 -> multi_knapsack_ilp rng
  | _ -> assignment_ilp rng

(* Both oracles print the failing seed: [oracle_ilp (Rng.create seed)]
   rebuilds the instance. *)
let prop_milp_matches_brute_force =
  QCheck2.Test.make ~name:"branch & bound matches 0/1 enumeration" ~count:150
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let m, nvars, cons, obj = oracle_ilp (Rng.create seed) in
      let params = { Milp.default_params with first_solution = false } in
      match (Milp.solve ~params m, brute_force_ilp nvars cons obj) with
      | Milp.Feasible s, Some best -> abs_float (s.objective -. best) < 1e-6
      | Milp.Infeasible, None -> true
      | Milp.Feasible _, None -> false
      | Milp.Infeasible, Some _ -> false
      | Milp.Unknown, _ -> false)

(* The product mode: the search every floorplan solve runs (first
   feasible point, root heuristics on) finds a feasible, integral
   point exactly when 0/1 enumeration finds one. *)
let prop_default_params_feasibility_oracle =
  QCheck2.Test.make ~name:"product mode matches 0/1 feasibility"
    ~count:150 ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let m, nvars, cons, obj = oracle_ilp (Rng.create seed) in
      match (Milp.solve ~params:Milp.default_params m, brute_force_ilp nvars cons obj) with
      | Milp.Feasible s, Some _ ->
        Model.check_feasible m (fun v -> s.values.(v)) = Ok ()
        && Array.for_all (fun x -> Float.round x = x) s.values
      | Milp.Infeasible, None -> true
      | Milp.Feasible _, None | Milp.Infeasible, Some _ | Milp.Unknown, _ -> false)

let prop_relax_and_fix_feasible =
  QCheck2.Test.make ~name:"relax-and-fix solutions are feasible" ~count:100
    QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let nvars = 4 + Rng.int rng 6 in
      let m = Model.create () in
      let vars = Array.init nvars (fun _ -> Model.add_binary m) in
      (* Assignment-flavoured random instance: partition vars in pairs,
         each pair sums to 1, plus a random knapsack row. *)
      Array.iteri
        (fun i _ ->
          if i mod 2 = 0 && i + 1 < nvars then
            ignore
              (Model.add_constraint m
                 (Expr.add (Expr.var vars.(i)) (Expr.var vars.(i + 1)))
                 Model.Eq 1.0))
        vars;
      let coefs = Array.map (fun v -> Expr.var ~coef:(1.0 +. Rng.float rng 3.0) v) vars in
      ignore
        (Model.add_constraint m
           (Expr.sum (Array.to_list coefs))
           Model.Le (2.0 +. Rng.float rng (float_of_int nvars)));
      match Milp.relax_and_fix m with
      | Milp.Feasible s -> Model.check_feasible m (fun v -> s.values.(v)) = Ok ()
      | Milp.Infeasible | Milp.Unknown -> true)

(* ---------- budget-limited branch & bound ---------- *)

module Budget = Agingfp_util.Budget

(* A knapsack whose LP relaxation stays fractional down every branch,
   so the full proof of optimality needs many nodes while incumbents
   appear early. Presolve off: probing must not shrink the search. *)
let budget_knapsack () =
  let m = Model.create () in
  let values = [| 10.0; 9.0; 8.0; 7.0; 6.0; 5.0; 4.0; 3.0 |] in
  let weights = [| 4.0; 3.0; 3.0; 2.0; 2.0; 1.0; 3.0; 2.0 |] in
  let vars = Array.map (fun _ -> Model.add_binary m) values in
  ignore
    (Model.add_constraint m
       (Expr.sum (Array.to_list (Array.mapi (fun i v -> Expr.var ~coef:weights.(i) v) vars)))
       Model.Le 9.0);
  Model.set_objective m Model.Maximize
    (Expr.sum (Array.to_list (Array.mapi (fun i v -> Expr.var ~coef:values.(i) v) vars)));
  m

let test_milp_node_limit_incumbent () =
  (* Node-limit semantics need a search that actually visits nodes:
     root heuristics close the knapsack before branching. *)
  let base =
    {
      Milp.default_params with
      first_solution = false;
      presolve = false;
      heuristics = false;
    }
  in
  (* Full run: how many nodes a complete proof takes, and the optimum. *)
  let full_result, full_stats = Milp.solve_with_stats ~params:base (budget_knapsack ()) in
  let full = get_feasible full_result in
  Alcotest.(check bool) "full search ran to completion" true
    (full_stats.Milp.stop = Budget.Optimal);
  Alcotest.(check bool)
    (Printf.sprintf "full search needs several nodes (got %d)" full_stats.Milp.nodes)
    true
    (full_stats.Milp.nodes > 6);
  (* Cut the node budget well short of the proof: the best incumbent
     found so far must still come back (not Unknown), and the stats
     must say the solve was budget-limited. *)
  let limited = { base with Milp.node_limit = 6 } in
  let result, stats = Milp.solve_with_stats ~params:limited (budget_knapsack ()) in
  let sol = get_feasible result in
  Alcotest.(check bool) "stats mark the solve budget-limited" true
    (stats.Milp.stop = Budget.Node_limit);
  Alcotest.(check bool) "node budget respected" true (stats.Milp.nodes <= 6);
  Alcotest.(check bool) "incumbent no better than the optimum" true
    (sol.Simplex.objective <= full.Simplex.objective +. 1e-9);
  Alcotest.(check bool) "incumbent satisfies the model" true
    (Model.check_feasible (budget_knapsack ()) (fun v -> sol.Simplex.values.(v)) = Ok ())

let test_milp_deadline_stops_search () =
  (* An already-expired wall-clock budget: the search must stop at the
     first node checkpoint and say Deadline — never hang, never lie
     about why it stopped. *)
  let params =
    {
      Milp.default_params with
      first_solution = false;
      presolve = false;
      budget = Budget.create ~deadline_s:0.0 ();
    }
  in
  let result, stats = Milp.solve_with_stats ~params (budget_knapsack ()) in
  Alcotest.(check bool) "stopped for the deadline" true
    (stats.Milp.stop = Budget.Deadline);
  Alcotest.(check bool) "no nodes explored" true (stats.Milp.nodes = 0);
  Alcotest.(check bool) "no incumbent -> Unknown, not Infeasible" true
    (result = Milp.Unknown)

(* With identical parameters and deterministic DFS, the nodes explored
   under a smaller node budget are a prefix of those explored under a
   larger one — so tightening the budget can never produce a better
   incumbent. *)
let prop_milp_tighter_budget_never_better =
  QCheck2.Test.make ~name:"tighter node budget never yields a better objective"
    ~count:150
    QCheck2.Gen.(tup3 int (int_range 1 12) (int_range 0 30))
    (fun (seed, small_limit, extra) ->
      let rng = Rng.create seed in
      let nvars = 3 + Rng.int rng 5 in
      let ncons = 1 + Rng.int rng 4 in
      let cons =
        List.init ncons (fun _ ->
            let coefs = List.init nvars (fun v -> (v, float_of_int (Rng.int rng 7 - 3))) in
            let rhs = float_of_int (Rng.int rng 8 - 2) in
            let rel = if Rng.int rng 3 = 0 then Model.Ge else Model.Le in
            (coefs, rel, rhs))
      in
      let obj = List.init nvars (fun v -> (v, float_of_int (Rng.int rng 11 - 5))) in
      let build () =
        let m = Model.create () in
        let vars = Array.init nvars (fun _ -> Model.add_binary m) in
        List.iter
          (fun (coefs, rel, rhs) ->
            let lhs = Expr.sum (List.map (fun (v, c) -> Expr.var ~coef:c vars.(v)) coefs) in
            ignore (Model.add_constraint m lhs rel rhs))
          cons;
        Model.set_objective m Model.Maximize
          (Expr.sum (List.map (fun (v, c) -> Expr.var ~coef:c vars.(v)) obj));
        m
      in
      let params limit =
        { Milp.default_params with first_solution = false; node_limit = limit }
      in
      let tight = Milp.solve ~params:(params small_limit) (build ()) in
      let loose = Milp.solve ~params:(params (small_limit + extra)) (build ()) in
      match (tight, loose) with
      | Milp.Feasible a, Milp.Feasible b ->
        a.Simplex.objective <= b.Simplex.objective +. 1e-9
      | Milp.Feasible _, (Milp.Infeasible | Milp.Unknown) ->
        (* The prefix property makes this impossible. *)
        false
      | (Milp.Infeasible | Milp.Unknown), _ -> true)

(* ---------- LP-format export ---------- *)

let lp_contains text sub =
  let n = String.length text and m = String.length sub in
  let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
  go 0

let test_lp_format_sections () =
  let m = Model.create () in
  let x = Model.add_var ~ub:4.0 m in
  let b = Model.add_binary m in
  let free = Model.add_var ~lb:neg_infinity m in
  ignore free;
  ignore
    (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var ~coef:2.0 b)) Model.Le 5.0);
  ignore (Model.add_constraint m (Expr.var x) Model.Ge 1.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var b));
  let text = Lp_format.to_string m in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" sub) true (lp_contains text sub))
    [
      "Maximize"; "Subject To"; "Bounds"; "Binary"; "End"; "x0 <= 4"; "x2 free";
      "c0:"; "<= 5"; ">= 1"; "x0 + 2 x1 <= 5";
    ]

let test_lp_format_negative_coefs () =
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var ~coef:(-1.0) x) (Expr.var ~coef:(-2.5) y))
       Model.Eq (-3.0));
  let text = Lp_format.to_string m in
  Alcotest.(check bool) "minus rendering" true (lp_contains text "- x0 - 2.5 x1 = -3")

let test_lp_format_fixed_var () =
  let m = Model.create () in
  let x = Model.add_var m in
  Model.fix_var m x 2.0;
  ignore (Model.add_constraint m (Expr.var x) Model.Le 5.0);
  let text = Lp_format.to_string m in
  Alcotest.(check bool) "fixed bound" true (lp_contains text "x0 = 2")

let test_lp_format_file_roundtrip () =
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m in
  ignore (Model.add_constraint m (Expr.var x) Model.Le 1.0);
  let path = Filename.temp_file "agingfp" ".lp" in
  (match Lp_format.write_file path m with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let content = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check bool) "written" true (lp_contains content "End");
  Sys.remove path

(* ---------- Analyze (static linter) ---------- *)

let has_code diags code =
  List.exists (fun (d : Analyze.diagnostic) -> d.Analyze.code = code) diags

let test_analyze_clean_model () =
  (* A healthy assignment-shaped model must produce no diagnostics of
     Error or Warning severity. *)
  let m = Model.create () in
  let xs = Array.init 4 (fun i -> Model.add_binary ~name:(Printf.sprintf "b%d" i) m) in
  ignore
    (Model.add_constraint ~name:"onehot" m
       (Expr.sum (Array.to_list (Array.map Expr.var xs)))
       Model.Eq 1.0);
  Model.set_objective m Model.Minimize
    (Expr.sum (Array.to_list (Array.mapi (fun i x -> Expr.var ~coef:(float_of_int (i + 1)) x) xs)));
  let diags = Analyze.lint m in
  Alcotest.(check int) "no errors" 0 (List.length (Analyze.errors diags));
  Alcotest.(check bool) "no warnings" false
    (List.exists (fun (d : Analyze.diagnostic) -> d.Analyze.severity = Analyze.Warning) diags)

let test_analyze_bad_bounds () =
  (* [add_var]/[set_bounds] reject [lb > ub] up front, but NaN slips
     through every float comparison and [fix_var] never validates —
     exactly the holes the linter exists to close. *)
  let m = Model.create () in
  let x = Model.add_var m in
  Model.fix_var m x Float.nan;
  let inf_lb = Model.add_var ~lb:infinity m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var inf_lb)) Model.Le 5.0);
  let diags = Analyze.lint m in
  Alcotest.(check bool) "nonfinite flagged" true (has_code diags Analyze.Nonfinite_bound);
  Alcotest.(check bool) "is an error" true (Analyze.errors diags <> [])

let test_analyze_duplicate_row () =
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m and y = Model.add_var ~ub:1.0 m in
  let lhs () = Expr.add (Expr.var x) (Expr.var ~coef:2.0 y) in
  ignore (Model.add_constraint m (lhs ()) Model.Le 3.0);
  ignore (Model.add_constraint m (lhs ()) Model.Le 3.0);
  Model.set_objective m Model.Maximize (Expr.var x);
  Alcotest.(check bool) "duplicate flagged" true
    (has_code (Analyze.lint m) Analyze.Duplicate_row)

let test_analyze_dangling_var () =
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m in
  let _orphan = Model.add_var ~ub:1.0 m in
  ignore (Model.add_constraint m (Expr.var x) Model.Le 1.0);
  Model.set_objective m Model.Maximize (Expr.var x);
  let diags = Analyze.lint m in
  Alcotest.(check bool) "dangling flagged" true (has_code diags Analyze.Dangling_var);
  Alcotest.(check bool) "points at var 1" true
    (List.exists
       (fun (d : Analyze.diagnostic) ->
         d.Analyze.code = Analyze.Dangling_var && d.Analyze.var = Some 1)
       diags)

let test_analyze_row_infeasible_by_bounds () =
  (* x + y <= -1 with x, y in [0,1]: min activity 0 > -1. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m and y = Model.add_var ~ub:1.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le (-1.0));
  Model.set_objective m Model.Maximize (Expr.var x);
  let diags = Analyze.lint m in
  Alcotest.(check bool) "bound-infeasible flagged" true
    (has_code diags Analyze.Row_infeasible_by_bounds);
  Alcotest.(check bool) "is an error" true (Analyze.errors diags <> [])

let test_analyze_row_forced_by_bounds () =
  (* x + y <= 5 with x, y in [0,1]: max activity 2, row constrains
     nothing. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m and y = Model.add_var ~ub:1.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 5.0);
  Model.set_objective m Model.Maximize (Expr.var x);
  let diags = Analyze.lint m in
  Alcotest.(check bool) "forced flagged" true (has_code diags Analyze.Row_forced_by_bounds);
  Alcotest.(check int) "but not an error" 0 (List.length (Analyze.errors diags))

let test_analyze_nonbinary_in_one_hot () =
  let m = Model.create () in
  let a = Model.add_binary m in
  let b = Model.add_var ~ub:1.0 m in
  (* continuous *)
  ignore (Model.add_constraint m (Expr.add (Expr.var a) (Expr.var b)) Model.Eq 1.0);
  Model.set_objective m Model.Maximize (Expr.var a);
  Alcotest.(check bool) "one-hot violation flagged" true
    (has_code (Analyze.lint m) Analyze.Nonbinary_in_one_hot)

let test_analyze_empty_contradictory_row () =
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m in
  ignore (Model.add_constraint m (Expr.const 0.0) Model.Ge 1.0);
  ignore (Model.add_constraint m (Expr.var x) Model.Le 1.0);
  Model.set_objective m Model.Maximize (Expr.var x);
  let diags = Analyze.lint m in
  Alcotest.(check bool) "empty row flagged" true (has_code diags Analyze.Empty_row);
  Alcotest.(check bool) "contradictory -> error" true (Analyze.errors diags <> [])

(* ---------- Certify (exact certificate checking) ---------- *)

let certified = function Certify.Certified -> true | _ -> false
let rejected = function Certify.Rejected _ -> true | _ -> false

let small_lp () =
  (* max x + 2y s.t. x + y <= 4, y <= 3, x,y in [0,10] -> (1,3), obj 7. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:10.0 m and y = Model.add_var ~ub:10.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 4.0);
  ignore (Model.add_constraint m (Expr.var y) Model.Le 3.0);
  Model.set_objective m Model.Maximize
    (Expr.add (Expr.var x) (Expr.var ~coef:2.0 y));
  m

let test_certify_accepts_true_optimum () =
  let m = small_lp () in
  match Simplex.solve m with
  | Simplex.Optimal s ->
    Alcotest.(check bool) "certified" true (certified (Certify.solution m s))
  | _ -> Alcotest.fail "expected optimal"

let test_certify_rejects_nudged_solution () =
  (* The acceptance-criterion test: corrupt an optimal solution by
     nudging one variable off its value and the certificate checker
     must reject it against the original model. *)
  let m = small_lp () in
  match Simplex.solve m with
  | Simplex.Optimal s ->
    let corrupt = { s with Simplex.values = Array.copy s.Simplex.values } in
    corrupt.Simplex.values.(0) <- corrupt.Simplex.values.(0) +. 0.5;
    Alcotest.(check bool) "corrupted solution rejected" true
      (rejected (Certify.solution m corrupt));
    Alcotest.(check bool) "original still certified" true
      (certified (Certify.solution m s))
  | _ -> Alcotest.fail "expected optimal"

let test_certify_rejects_wrong_objective () =
  let m = small_lp () in
  match Simplex.solve m with
  | Simplex.Optimal s ->
    let lie = { s with Simplex.objective = s.Simplex.objective +. 1.0 } in
    Alcotest.(check bool) "objective lie rejected" true
      (rejected (Certify.solution m lie))
  | _ -> Alcotest.fail "expected optimal"

let test_certify_rejects_fractional_integer () =
  let m = Model.create () in
  let x = Model.add_binary m in
  ignore (Model.add_constraint m (Expr.var x) Model.Le 1.0);
  Model.set_objective m Model.Maximize (Expr.var x);
  let s = { Simplex.values = [| 0.5 |]; objective = 0.5; iterations = 0 } in
  Alcotest.(check bool) "fractional rejected as MILP point" true
    (rejected (Certify.solution m s));
  Alcotest.(check bool) "but fine as LP relaxation point" true
    (certified (Certify.solution ~relaxation:true m s))

let test_certify_milp_result () =
  let m = Model.create () in
  let a = Model.add_binary m and b = Model.add_binary m in
  ignore (Model.add_constraint m (Expr.add (Expr.var a) (Expr.var b)) Model.Le 1.0);
  Model.set_objective m Model.Maximize
    (Expr.add (Expr.var ~coef:3.0 a) (Expr.var ~coef:2.0 b));
  let r = Milp.solve ~params:{ Milp.default_params with first_solution = false } m in
  Alcotest.(check bool) "feasible result certified" true
    (certified (Certify.result m r))

let test_certify_infeasible_by_bound () =
  (* x >= 2 with x in [0,1]: a single row proves infeasibility, and
     [Certify.result] must find and verify that bound certificate. *)
  let m = Model.create () in
  let x = Model.add_binary m in
  ignore (Model.add_constraint m (Expr.var x) Model.Ge 2.0);
  (match Certify.find_bound_certificate m with
  | Some 0 -> ()
  | Some r -> Alcotest.failf "wrong certificate row %d" r
  | None -> Alcotest.fail "no bound certificate found");
  Alcotest.(check bool) "Infeasible verdict certified" true
    (certified (Certify.result m Milp.Infeasible))

let test_certify_farkas () =
  (* x + y <= 1 and x + y >= 3 (both in [0,10]): y = (1, -1) aggregates
     to 0 <= -2, an exact contradiction. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:10.0 m and y = Model.add_var ~ub:10.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 1.0);
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Ge 3.0);
  Alcotest.(check bool) "farkas vector certified" true
    (certified (Certify.farkas m [| 1.0; -1.0 |]));
  (* A sign-violating or non-contradicting vector must be rejected. *)
  Alcotest.(check bool) "bad multiplier rejected" true
    (rejected (Certify.farkas m [| -1.0; -1.0 |]));
  Alcotest.(check bool) "trivial vector rejected" true
    (rejected (Certify.farkas m [| 0.0; 0.0 |]))

(* ---------- LP-format parser round-trip ---------- *)

let test_lp_format_parse_simple () =
  let text =
    "Maximize\n obj: 3 x0 + 2 x1\nSubject To\n c0: x0 + x1 <= 4\n r1: x1 >= 1\n\
     Bounds\n x0 <= 10\n x1 <= 5\nEnd\n"
  in
  match Lp_format.of_string text with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check int) "vars" 2 (Model.num_vars m);
    Alcotest.(check int) "rows" 2 (Model.num_constraints m);
    Alcotest.(check string) "row name kept" "c0" (Model.row_name m 0);
    let _, rel, rhs = Model.constraint_row m 0 in
    Alcotest.(check bool) "relation" true (rel = Model.Le);
    Alcotest.(check (float 1e-9)) "rhs" 4.0 rhs;
    Alcotest.(check (float 1e-9)) "ub x0" 10.0 (Model.var_ub m 0);
    let dir, _ = Model.objective m in
    Alcotest.(check bool) "maximize" true (dir = Model.Maximize)

let test_lp_format_parse_rejects_garbage () =
  (match Lp_format.of_string "Maximize\n obj: x0 +\nEnd\n" with
  | Ok _ -> Alcotest.fail "dangling '+' accepted"
  | Error _ -> ());
  match Lp_format.of_string "Subject To\n c0: <= 3\nEnd\n" with
  | Ok _ -> Alcotest.fail "empty lhs accepted"
  | Error _ -> ()

let exprs_close a b =
  let ta = Expr.terms a and tb = Expr.terms b in
  List.length ta = List.length tb
  && List.for_all2
       (fun (v1, c1) (v2, c2) -> v1 = v2 && abs_float (c1 -. c2) < 1e-9)
       (List.sort compare ta) (List.sort compare tb)

let bound_close a b = a = b || abs_float (a -. b) < 1e-9

let models_equivalent m m' =
  Model.num_vars m = Model.num_vars m'
  && Model.num_constraints m = Model.num_constraints m'
  && List.for_all
       (fun v ->
         Model.var_kind m v = Model.var_kind m' v
         && bound_close (Model.var_lb m v) (Model.var_lb m' v)
         && bound_close (Model.var_ub m v) (Model.var_ub m' v))
       (List.init (Model.num_vars m) (fun v -> v))
  && List.for_all
       (fun r ->
         let lhs, rel, rhs = Model.constraint_row m r in
         let lhs', rel', rhs' = Model.constraint_row m' r in
         rel = rel' && abs_float (rhs -. rhs') < 1e-9 && exprs_close lhs lhs')
       (List.init (Model.num_constraints m) (fun r -> r))
  &&
  let dir, obj = Model.objective m and dir', obj' = Model.objective m' in
  dir = dir' && exprs_close obj obj'

let prop_lp_format_roundtrip =
  (* Writer -> parser round-trip: counts, kinds, bounds and relations
     survive exactly; coefficients within the %.12g print precision. *)
  QCheck2.Test.make ~name:"lp-format write/parse round-trip" ~count:300
    QCheck2.Gen.int (fun seed ->
      let m = build_2var_lp (random_2var_lp seed) in
      match Lp_format.of_string (Lp_format.to_string m) with
      | Error _ -> false
      | Ok m' -> models_equivalent m m')

let test_lp_format_roundtrip_integer_model () =
  (* Binary + general-integer + free + fixed vars all surviving. *)
  let m = Model.create () in
  let b = Model.add_binary ~name:"pick" m in
  let g = Model.add_var ~kind:Model.Integer ~lb:0.0 ~ub:7.0 m in
  let f = Model.add_var ~lb:neg_infinity m in
  let x = Model.add_var m in
  Model.fix_var m x 2.5;
  ignore
    (Model.add_constraint ~name:"cap" m
       (Expr.sum [ Expr.var b; Expr.var ~coef:2.0 g; Expr.var f ])
       Model.Le 9.0);
  ignore (Model.add_constraint m (Expr.add (Expr.var f) (Expr.var x)) Model.Ge (-2.0));
  Model.set_objective m Model.Maximize (Expr.add (Expr.var b) (Expr.var g));
  match Lp_format.of_string (Lp_format.to_string m) with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    Alcotest.(check bool) "equivalent" true (models_equivalent m m');
    Alcotest.(check string) "row label kept" "cap" (Model.row_name m' 0)

let () =
  Alcotest.run "lp"
    [
      ( "expr",
        [
          Alcotest.test_case "algebra" `Quick test_expr_algebra;
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "scale" `Quick test_expr_scale;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "dantzig example" `Quick test_lp_dantzig;
          Alcotest.test_case "ge rows" `Quick test_lp_ge_rows;
          Alcotest.test_case "eq rows" `Quick test_lp_eq_rows;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "bounded vars" `Quick test_lp_bounded_vars;
          Alcotest.test_case "fixed var" `Quick test_lp_fixed_var;
          Alcotest.test_case "negative rhs" `Quick test_lp_negative_rhs;
          Alcotest.test_case "free variable" `Quick test_lp_free_variable;
          Alcotest.test_case "no constraints" `Quick test_lp_no_constraints;
          Alcotest.test_case "degenerate" `Quick test_lp_degenerate;
          Alcotest.test_case "objective constant" `Quick test_lp_objective_constant;
          Alcotest.test_case "assignment-shaped" `Quick test_lp_assignment_shaped;
          Alcotest.test_case "Beale anti-cycling" `Quick test_lp_beale_cycling;
          Alcotest.test_case "warm restore leaves interior nonbasic" `Quick
            test_reoptimize_restored_bounds_interior;
          Alcotest.test_case "warm reoptimize exits a bound-flip cycle" `Quick
            test_reoptimize_cycle_exit;
          Alcotest.test_case "kernel counters" `Quick test_kernel_counters;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "singleton row to bound" `Quick test_presolve_singleton_row;
          Alcotest.test_case "fixed-var substitution" `Quick test_presolve_fixed_substitution;
          Alcotest.test_case "redundant row removal" `Quick test_presolve_redundant_row;
          Alcotest.test_case "forcing row" `Quick test_presolve_forcing_row;
          Alcotest.test_case "binary probing" `Quick test_presolve_probing;
          Alcotest.test_case "detects infeasibility" `Quick test_presolve_detects_infeasible;
        ] );
      ( "milp",
        [
          Alcotest.test_case "knapsack" `Quick test_milp_knapsack;
          Alcotest.test_case "integrality gap" `Quick test_milp_fractional_lp_integer_gap;
          Alcotest.test_case "infeasible" `Quick test_milp_infeasible;
          Alcotest.test_case "assignment" `Quick test_milp_assignment;
          Alcotest.test_case "relax-and-fix matches B&B" `Quick test_relax_and_fix_matches_bb;
          Alcotest.test_case "relax-and-fix presolve refutes first" `Quick
            test_relax_and_fix_presolve_refutes;
          Alcotest.test_case "relax-and-fix over-constrained pre-map" `Quick
            test_relax_and_fix_over_constrained;
          Alcotest.test_case "mixed integer/continuous" `Quick
            test_milp_mixed_integer_continuous;
          Alcotest.test_case "stats show warm branching" `Quick
            test_milp_stats_warm_branching;
          Alcotest.test_case "node limit returns best incumbent" `Quick
            test_milp_node_limit_incumbent;
          Alcotest.test_case "deadline stops the search" `Quick
            test_milp_deadline_stops_search;
        ] );
      ( "lp-format",
        [
          Alcotest.test_case "sections" `Quick test_lp_format_sections;
          Alcotest.test_case "negative coefs" `Quick test_lp_format_negative_coefs;
          Alcotest.test_case "fixed var" `Quick test_lp_format_fixed_var;
          Alcotest.test_case "file write" `Quick test_lp_format_file_roundtrip;
          Alcotest.test_case "parse simple" `Quick test_lp_format_parse_simple;
          Alcotest.test_case "parse rejects garbage" `Quick
            test_lp_format_parse_rejects_garbage;
          Alcotest.test_case "integer-model round-trip" `Quick
            test_lp_format_roundtrip_integer_model;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "clean model" `Quick test_analyze_clean_model;
          Alcotest.test_case "bad bounds" `Quick test_analyze_bad_bounds;
          Alcotest.test_case "duplicate row" `Quick test_analyze_duplicate_row;
          Alcotest.test_case "dangling var" `Quick test_analyze_dangling_var;
          Alcotest.test_case "row infeasible by bounds" `Quick
            test_analyze_row_infeasible_by_bounds;
          Alcotest.test_case "row forced by bounds" `Quick
            test_analyze_row_forced_by_bounds;
          Alcotest.test_case "non-binary in one-hot" `Quick
            test_analyze_nonbinary_in_one_hot;
          Alcotest.test_case "empty contradictory row" `Quick
            test_analyze_empty_contradictory_row;
        ] );
      ( "certify",
        [
          Alcotest.test_case "accepts true optimum" `Quick test_certify_accepts_true_optimum;
          Alcotest.test_case "rejects nudged solution" `Quick
            test_certify_rejects_nudged_solution;
          Alcotest.test_case "rejects wrong objective" `Quick
            test_certify_rejects_wrong_objective;
          Alcotest.test_case "integrality vs relaxation" `Quick
            test_certify_rejects_fractional_integer;
          Alcotest.test_case "milp result" `Quick test_certify_milp_result;
          Alcotest.test_case "infeasible by bound certificate" `Quick
            test_certify_infeasible_by_bound;
          Alcotest.test_case "farkas certificate" `Quick test_certify_farkas;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_simplex_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_simplex_solution_feasible;
          QCheck_alcotest.to_alcotest prop_lp_strong_duality;
          QCheck_alcotest.to_alcotest prop_presolve_lp_roundtrip;
          QCheck_alcotest.to_alcotest prop_reoptimize_bound_change_matches_cold;
          QCheck_alcotest.to_alcotest prop_reoptimize_rhs_change_matches_cold;
          QCheck_alcotest.to_alcotest prop_row_mirror_matches_columns;
          QCheck_alcotest.to_alcotest prop_milp_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_default_params_feasibility_oracle;
          QCheck_alcotest.to_alcotest prop_milp_modes_agree;
          QCheck_alcotest.to_alcotest prop_relax_and_fix_feasible;
          QCheck_alcotest.to_alcotest prop_milp_tighter_budget_never_better;
          QCheck_alcotest.to_alcotest prop_lp_format_roundtrip;
        ] );
    ]
