(* Presolve rule pipeline: deterministic per-rule regressions on
   handcrafted models, a planted-witness soundness property (every
   rule must preserve the full integer feasible set, so a model built
   around a known integer point can never presolve to infeasibility),
   and the pinned Eq.(3)-shaped guards run by @ci: presolve reductions
   and the sparse LU kernel's footprint. *)

module Expr = Agingfp_lp.Expr
module Model = Agingfp_lp.Model
module Simplex = Agingfp_lp.Simplex
module Basis = Agingfp_lp.Basis
module Milp = Agingfp_lp.Milp
module Presolve = Agingfp_lp.Presolve
module Certify = Agingfp_lp.Certify
module Rng = Agingfp_util.Rng

let get_reduced = function
  | Presolve.Reduced t -> t
  | Presolve.Proven_infeasible r -> Alcotest.failf "unexpected infeasibility: %s" r

let get_optimal = function
  | Simplex.Optimal s -> s
  | st -> Alcotest.failf "expected optimal, got %a" Simplex.pp_status st

let rule_apps t name =
  let r = Presolve.reductions t in
  match List.assoc_opt name r.Presolve.per_rule with
  | Some s -> s.Presolve.applications
  | None -> Alcotest.failf "unknown rule %s" name

(* Solve the reduced model, postsolve, and exact-check the point
   against the original model. Returns the original-space values. *)
let solve_and_certify ?(relaxation = true) m t =
  let s = get_optimal (Simplex.solve (Presolve.reduced t)) in
  let values = Presolve.postsolve t s.Simplex.values in
  (match Certify.solution ~relaxation m { s with Simplex.values } with
  | Certify.Certified -> ()
  | v -> Alcotest.failf "postsolved point rejected: %a" Certify.pp_verdict v);
  ignore relaxation;
  values

(* ---------- per-rule regressions ---------- *)

let test_redundant_row () =
  (* x + y <= 100 can never bind under the bounds; it must vanish
     without touching the optimum. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:3.0 m and y = Model.add_var ~ub:4.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 100.0);
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 5.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "redundant row fired" true (rule_apps t "redundant_row" >= 1);
  Alcotest.(check int) "one row left" 1 (Model.num_constraints (Presolve.reduced t));
  let values = solve_and_certify m t in
  Alcotest.(check (float 1e-6)) "optimum unchanged" 5.0 (values.(x) +. values.(y))

let test_forcing_row () =
  (* x + y >= 7 with x <= 3, y <= 4 forces both to their upper
     bounds; everything is decided by presolve alone. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:3.0 m and y = Model.add_var ~ub:4.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Ge 7.0);
  Model.set_objective m Model.Minimize (Expr.add (Expr.var x) (Expr.var y));
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "forcing row fired" true (rule_apps t "forcing_row" >= 1);
  Alcotest.(check int) "no vars left" 0 (Model.num_vars (Presolve.reduced t));
  let values = solve_and_certify m t in
  Alcotest.(check (float 1e-6)) "x forced" 3.0 values.(x);
  Alcotest.(check (float 1e-6)) "y forced" 4.0 values.(y)

let test_bound_tighten_integer_rounding () =
  (* 2x + 2y <= 5 on binaries admits x = y = 1 fractionally but the
     activity-tightened integer bound cuts nothing integral. *)
  let m = Model.create () in
  let x = Model.add_binary m and y = Model.add_binary m in
  let z = Model.add_var ~kind:Model.Integer ~lb:0.0 ~ub:9.0 m in
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var ~coef:4.0 z) (Expr.add (Expr.var x) (Expr.var y)))
       Model.Le 11.0);
  Model.set_objective m Model.Maximize
    (Expr.add (Expr.var ~coef:3.0 z) (Expr.add (Expr.var x) (Expr.var y)));
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "bound tightening fired" true (rule_apps t "bound_tighten" >= 1);
  (* z <= floor(11/4) = 2 after rounding. *)
  let params = { Milp.default_params with Milp.first_solution = false } in
  (match Milp.solve ~params m with
  | Milp.Feasible sol ->
    Alcotest.(check (float 1e-6)) "optimal objective" 8.0 sol.Simplex.objective
  | _ -> Alcotest.fail "expected feasible")

let test_synonym_subst () =
  (* 2x - 4y = 0 makes x and 2y synonyms; one survives. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:10.0 m and y = Model.add_var ~ub:3.0 m in
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var ~coef:2.0 x) (Expr.var ~coef:(-4.0) y))
       Model.Eq 0.0);
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 9.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let t = get_reduced (Presolve.run m) in
  let r = Presolve.reductions t in
  Alcotest.(check bool) "synonym fired" true (rule_apps t "synonym_subst" >= 1);
  Alcotest.(check bool) "a variable was substituted" true (r.Presolve.vars_substituted >= 1);
  let values = solve_and_certify m t in
  Alcotest.(check (float 1e-6)) "synonym relation holds" values.(x) (2.0 *. values.(y))

let test_synonym_subst_infinite_bound () =
  (* x - y = 0 with both variables unbounded above (the Model.add_var
     default) and opposite-sign coefficients: the bound fold divides
     by a negative ratio, so the eliminated variable's infinite upper
     bound must map to an infinite (i.e. non-restricting) endpoint for
     the survivor — not to a wrong-signed infinity that collapses its
     domain. Both ubs stay infinite through activity tightening (each
     would need the other's finite ub), so synonym_subst is the first
     rule to look at them. The model is plainly feasible; presolve
     must never prove it infeasible. *)
  let m = Model.create () in
  let x = Model.add_var ~lb:1.0 m and y = Model.add_var m in
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var x) (Expr.var ~coef:(-1.0) y))
       Model.Eq 0.0);
  Model.set_objective m Model.Minimize (Expr.add (Expr.var x) (Expr.var y));
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "synonym fired" true (rule_apps t "synonym_subst" >= 1);
  let values = solve_and_certify m t in
  Alcotest.(check (float 1e-6)) "x = y" values.(x) values.(y);
  Alcotest.(check (float 1e-6)) "optimum" 2.0 (values.(x) +. values.(y))

let test_free_col_subst () =
  (* s appears only in the equality s = 3x + y and its own (loose)
     bounds: implied-free, so the equality defines it away. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:2.0 m and y = Model.add_var ~ub:2.0 m in
  let s = Model.add_var ~lb:(-100.0) ~ub:100.0 m in
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var s)
          (Expr.add (Expr.var ~coef:(-3.0) x) (Expr.var ~coef:(-1.0) y)))
       Model.Eq 0.0);
  ignore (Model.add_constraint m (Expr.add (Expr.var x) (Expr.var y)) Model.Le 3.0);
  Model.set_objective m Model.Minimize (Expr.var s);
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "free column fired" true (rule_apps t "free_col_subst" >= 1);
  let values = solve_and_certify m t in
  Alcotest.(check (float 1e-6)) "s reconstructed from the equality"
    ((3.0 *. values.(x)) +. values.(y))
    values.(s)

let test_coef_strengthen () =
  (* 3x + 2y <= 4 on binaries: x's coefficient tightens to 2 (setting
     x = 1 leaves room for nothing anyway). Integer points are
     untouched; the LP corner (1, 1/2) is cut. *)
  let m = Model.create () in
  let x = Model.add_binary m and y = Model.add_binary m in
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var ~coef:3.0 x) (Expr.var ~coef:2.0 y))
       Model.Le 4.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "strengthening fired" true (rule_apps t "coef_strengthen" >= 1);
  let params = { Milp.default_params with Milp.first_solution = false } in
  (match Milp.solve ~params m with
  | Milp.Feasible sol ->
    Alcotest.(check (float 1e-6)) "integer optimum intact" 1.0 sol.Simplex.objective;
    (match Certify.solution m sol with
    | Certify.Certified -> ()
    | v -> Alcotest.failf "rejected: %a" Certify.pp_verdict v)
  | _ -> Alcotest.fail "expected feasible")

let test_clique_reduce () =
  (* A path-budget row dominated by the one-hot structure: with
     sum x = 1 and sum y = 1 (3 members each, wide enough that
     synonym substitution cannot pre-empt the cliques), the row
     sum x + sum y <= 2 is redundant although its plain activity
     bound (6) overshoots. *)
  let m = Model.create () in
  let xs = Array.init 3 (fun _ -> Model.add_binary m) in
  let ys = Array.init 3 (fun _ -> Model.add_binary m) in
  let sum vs = Expr.sum (Array.to_list (Array.map Expr.var vs)) in
  ignore (Model.add_constraint m (sum xs) Model.Eq 1.0);
  ignore (Model.add_constraint m (sum ys) Model.Eq 1.0);
  ignore (Model.add_constraint m (Expr.add (sum xs) (sum ys)) Model.Le 2.0);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var xs.(0)) (Expr.var ys.(0)));
  let t = get_reduced (Presolve.run m) in
  Alcotest.(check bool) "clique reduction fired" true (rule_apps t "clique_reduce" >= 1);
  ignore (solve_and_certify m t)

let test_clique_partial_one_hot () =
  (* The at-most-one clique {a1, a2, c} claims a1 and a2 of the
     budget row first, leaving {b1, b2} and {d1, d2} of the two one-hot
     rows. Those remainders may both be 0 (a1 or a2 can be the one), so
     they add nothing to the row's minimum activity; counting each
     remainder's cheapest member (2 + 1) refuted the feasible point
     a1 = d1 = 1. *)
  let m = Model.create () in
  let bin () = Model.add_binary m in
  let a1 = bin () and b1 = bin () and b2 = bin () in
  let a2 = bin () and d1 = bin () and d2 = bin () in
  let c = bin () in
  let lin ts = Expr.sum (List.map (fun (k, v) -> Expr.var ~coef:k v) ts) in
  ignore (Model.add_constraint m (lin [ (1.0, a1); (1.0, b1); (1.0, b2) ]) Model.Eq 1.0);
  ignore (Model.add_constraint m (lin [ (1.0, a2); (1.0, d1); (1.0, d2) ]) Model.Eq 1.0);
  ignore (Model.add_constraint m (lin [ (1.0, a1); (1.0, a2); (1.0, c) ]) Model.Le 1.0);
  ignore
    (Model.add_constraint m
       (lin [ (1.0, a1); (2.0, b1); (2.0, b2); (2.0, a2); (1.0, d1); (1.0, d2); (1.0, c) ])
       Model.Le 2.0);
  Model.set_objective m Model.Maximize (Expr.var c);
  ignore (get_reduced (Presolve.run m));
  match Milp.solve m with
  | Milp.Feasible sol -> (
    match Certify.solution m sol with
    | Certify.Certified -> ()
    | v -> Alcotest.failf "rejected: %a" Certify.pp_verdict v)
  | r -> Alcotest.failf "expected feasible, got %a" Milp.pp_result r

let test_probe () =
  (* Setting v = 1 forces its one-hot mate w = 0, which starves
     z + w >= 1 given z <= 0 — so v must be 0. *)
  let m = Model.create () in
  let v = Model.add_binary m and w = Model.add_binary m in
  let z = Model.add_var ~ub:0.0 m in
  ignore (Model.add_constraint m (Expr.add (Expr.var v) (Expr.var w)) Model.Eq 1.0);
  ignore (Model.add_constraint m (Expr.add (Expr.var z) (Expr.var w)) Model.Ge 1.0);
  Model.set_objective m Model.Maximize (Expr.var v);
  let t = get_reduced (Presolve.run m) in
  let r = Presolve.reductions t in
  Alcotest.(check bool) "probe or forcing fixed v" true
    (r.Presolve.probe_fixings >= 1 || r.Presolve.vars_fixed >= 1);
  Alcotest.(check int) "probe applications equal probe fixings"
    r.Presolve.probe_fixings (rule_apps t "probe");
  let values = solve_and_certify m t in
  Alcotest.(check (float 1e-6)) "v off" 0.0 values.(v);
  Alcotest.(check (float 1e-6)) "w on" 1.0 values.(w)

let test_empty_row_infeasibility () =
  let m = Model.create () in
  let x = Model.add_binary m in
  ignore (Model.add_constraint m (Expr.var ~coef:0.0 x) Model.Ge 1.0);
  match Presolve.run m with
  | Presolve.Proven_infeasible _ -> ()
  | Presolve.Reduced _ -> Alcotest.fail "0 >= 1 must be proven infeasible"

let test_starved_one_hot_stops_at_row () =
  (* Round 1's bound tightening rounds every member of the one-hot row
     to 0 (5x + y <= 3 with y >= 0 leaves x <= 0.6); the run stops on
     that row as the last member is fixed, and says so. *)
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
  match Presolve.run m with
  | Presolve.Reduced _ -> Alcotest.fail "a one-hot row with every member at 0 is infeasible"
  | Presolve.Proven_infeasible msg ->
    Alcotest.(check string) "names the row and the rule that emptied it"
      "bound_tighten: row 0 (onehot) contradictory" msg

(* ---------- planted-witness soundness ---------- *)

(* Build a random Eq.(3)-shaped model TOGETHER with an integer point
   that satisfies it by construction. Since every presolve rule
   preserves the full integer feasible set, presolve may never prove
   such a model infeasible, and the reduced LP relaxation must stay
   feasible. This is the property that catches unsound reductions on
   structured (one-hot + knapsack) instances that uniform-random
   models never exercise. *)
let planted_model ?(max_groups = 5) seed =
  let rng = Rng.create seed in
  let m = Model.create () in
  let ngroups = 2 + Rng.int rng (max_groups - 1) in
  let groups =
    Array.init ngroups (fun _ ->
        let size = 2 + Rng.int rng 3 in
        let vars = Array.init size (fun _ -> Model.add_binary m) in
        let pick = Rng.int rng size in
        (* exactly-one row: the witness picks one member. *)
        ignore
          (Model.add_constraint m
             (Expr.sum (Array.to_list (Array.map Expr.var vars)))
             Model.Eq 1.0);
        (vars, pick))
  in
  let witness = Hashtbl.create 16 in
  Array.iter
    (fun (vars, pick) ->
      Array.iteri (fun i v -> Hashtbl.replace witness v (if i = pick then 1.0 else 0.0)) vars)
    groups;
  let wval v = try Hashtbl.find witness v with Not_found -> 0.0 in
  (* Knapsack rows over random binaries, rhs = witness activity plus
     nonnegative slack: satisfiable by construction. *)
  let all_bins =
    Array.concat (Array.to_list (Array.map (fun (vs, _) -> vs) groups))
  in
  let nknap = 1 + Rng.int rng 3 in
  for _ = 1 to nknap do
    let terms = ref [] and act = ref 0.0 in
    Array.iter
      (fun v ->
        if Rng.int rng 3 = 0 then begin
          let c = float_of_int (1 + Rng.int rng 5) in
          terms := Expr.var ~coef:c v :: !terms;
          act := !act +. (c *. wval v)
        end)
      all_bins;
    if !terms <> [] then begin
      let slack = float_of_int (Rng.int rng 3) in
      ignore (Model.add_constraint m (Expr.sum !terms) Model.Le (!act +. slack))
    end
  done;
  (* A continuous aggregate pinned to its defining equality, like the
     per-PE wear columns: s - sum c_i x_i = 0. *)
  let s = Model.add_var ~lb:0.0 ~ub:1000.0 m in
  let terms = ref [ Expr.var s ] and act = ref 0.0 in
  Array.iter
    (fun v ->
      if Rng.int rng 2 = 0 then begin
        let c = float_of_int (1 + Rng.int rng 4) in
        terms := Expr.var ~coef:(-.c) v :: !terms;
        act := !act +. (c *. wval v)
      end)
    all_bins;
  ignore (Model.add_constraint m (Expr.sum !terms) Model.Eq 0.0);
  let sval = !act in
  (* An occasional covering row, again anchored on the witness. *)
  if Rng.int rng 2 = 0 then begin
    let terms = ref [] and act = ref 0.0 in
    Array.iter
      (fun v ->
        if Rng.int rng 3 = 0 then begin
          terms := Expr.var v :: !terms;
          act := !act +. wval v
        end)
      all_bins;
    if !terms <> [] && !act > 0.0 then
      ignore (Model.add_constraint m (Expr.sum !terms) Model.Ge !act)
  end;
  Model.set_objective m Model.Minimize
    (Expr.add (Expr.var ~coef:0.01 s)
       (Expr.sum (Array.to_list (Array.map (fun v -> Expr.var v) all_bins))));
  let check = Model.check_feasible m (fun v -> if v = s then sval else wval v) in
  (match check with
  | Ok () -> ()
  | Error e -> Alcotest.failf "seed %d: witness violates its own model: %s" seed e);
  m

let prop_planted_never_infeasible =
  QCheck2.Test.make ~name:"presolve keeps planted-witness models feasible" ~count:150
    QCheck2.Gen.int (fun seed ->
      let m = planted_model seed in
      match Presolve.run m with
      | Presolve.Proven_infeasible r ->
        QCheck2.Test.fail_reportf "falsely proven infeasible: %s" r
      | Presolve.Reduced t -> (
        match Simplex.solve (Presolve.reduced t) with
        | Simplex.Infeasible -> QCheck2.Test.fail_reportf "reduced LP infeasible"
        | Simplex.Optimal s ->
          let values = Presolve.postsolve t s.Simplex.values in
          (match Certify.solution ~relaxation:true m { s with Simplex.values } with
          | Certify.Certified -> true
          | Certify.Rejected es ->
            QCheck2.Test.fail_reportf "postsolve rejected: %s" (String.concat "; " es)
          | Certify.Unsupported e -> QCheck2.Test.fail_reportf "unsupported: %s" e)
        | st ->
          QCheck2.Test.fail_reportf "reduced LP: %s"
            (Format.asprintf "%a" Simplex.pp_status st)))

(* Every 0/1 assignment of the model's binaries, checked row by row.
   Each continuous variable must occur in at most one row, so a row is
   satisfiable exactly when its activity range over the continuous
   bounds meets the rhs. *)
let enumerate_feasible m =
  let ints = Array.of_list (Model.integer_vars m) in
  let nb = Array.length ints in
  if nb > 16 then Alcotest.failf "%d binaries: too many to enumerate" nb;
  let is_int = Array.make (Model.num_vars m) false in
  Array.iter (fun v -> is_int.(v) <- true) ints;
  let rows = ref [] and seen = Array.make (Model.num_vars m) false in
  Model.iter_constraints m (fun _ lhs rel rhs ->
      List.iter
        (fun (v, _) ->
          if not is_int.(v) then begin
            if seen.(v) then Alcotest.fail "continuous variable in two rows";
            seen.(v) <- true
          end)
        (Expr.terms lhs);
      rows := (Expr.terms lhs, rel, rhs) :: !rows);
  let x = Array.make (Model.num_vars m) 0.0 in
  let row_ok (terms, rel, rhs) =
    let lo, hi =
      List.fold_left
        (fun (lo, hi) (v, c) ->
          if is_int.(v) then (lo +. (c *. x.(v)), hi +. (c *. x.(v)))
          else
            let a = c *. Model.var_lb m v and b = c *. Model.var_ub m v in
            (lo +. Float.min a b, hi +. Float.max a b))
        (0.0, 0.0) terms
    in
    match rel with
    | Model.Le -> lo <= rhs +. 1e-9
    | Model.Ge -> hi >= rhs -. 1e-9
    | Model.Eq -> lo <= rhs +. 1e-9 && hi >= rhs -. 1e-9
  in
  let rec search mask =
    mask < 1 lsl nb
    && begin
         Array.iteri
           (fun i v -> x.(v) <- (if mask land (1 lsl i) <> 0 then 1.0 else 0.0))
           ints;
         List.for_all row_ok !rows || search (mask + 1)
       end
  in
  search 0

(* A planted model plus one extra one-hot group and a knapsack row over
   that group and some planted binaries. Poisoned: every group member's
   knapsack coefficient exceeds the rhs, so no member can be 1 and the
   model has no integer point. Otherwise each member's coefficient is
   drawn from 1 to rhs + 4, and enumeration decides. *)
let poisoned_model seed poisoned =
  let m = planted_model ~max_groups:3 seed in
  let rng = Rng.create (seed + 1) in
  let planted = Array.of_list (Model.integer_vars m) in
  let group = Array.init (2 + Rng.int rng 2) (fun _ -> Model.add_binary m) in
  ignore
    (Model.add_constraint ~name:"poisoned" m
       (Expr.sum (Array.to_list (Array.map Expr.var group)))
       Model.Eq 1.0);
  let others =
    Array.fold_left
      (fun acc v ->
        if Rng.int rng 3 = 0 then Expr.var ~coef:(float_of_int (1 + Rng.int rng 5)) v :: acc
        else acc)
      [] planted
  in
  let rhs = float_of_int (Rng.int rng 6) in
  let coef () =
    if poisoned then rhs +. float_of_int (1 + Rng.int rng 4)
    else float_of_int (1 + Rng.int rng (int_of_float rhs + 4))
  in
  let members = Array.to_list (Array.map (fun v -> Expr.var ~coef:(coef ()) v) group) in
  ignore (Model.add_constraint m (Expr.sum (members @ others)) Model.Le rhs);
  m

let prop_poisoned_matches_enumeration =
  QCheck2.Test.make ~name:"presolve infeasibility agrees with 0/1 enumeration" ~count:200
    ~print:(fun (seed, poisoned) -> Printf.sprintf "seed=%d poisoned=%b" seed poisoned)
    QCheck2.Gen.(pair int bool)
    (fun (seed, poisoned) ->
      let m = poisoned_model seed poisoned in
      let feasible = enumerate_feasible m in
      if poisoned && feasible then QCheck2.Test.fail_reportf "poisoned model has a point";
      match Presolve.run m with
      | Presolve.Proven_infeasible r when feasible ->
        QCheck2.Test.fail_reportf "falsely proven infeasible: %s" r
      | Presolve.Reduced _ when poisoned ->
        QCheck2.Test.fail_reportf "poisoned model not proven infeasible"
      | _ -> true)

(* presolve ∘ postsolve preserves the MILP verdict and objective,
   across basis kernels and warm/cold node starts. *)
let prop_milp_presolve_equivalence =
  QCheck2.Test.make
    ~name:"MILP with presolve matches MILP without, all kernels, warm and cold"
    ~count:40 QCheck2.Gen.int (fun seed ->
      let m = planted_model seed in
      let base =
        { Milp.default_params with Milp.first_solution = false; node_limit = 4000 }
      in
      let variants =
        [
          { base with Milp.presolve = false };
          { base with Milp.presolve = true };
          { base with Milp.presolve = true; warm_start = false };
          {
            base with
            Milp.presolve = true;
            warm_start = false;
            lp_params = { base.Milp.lp_params with Simplex.kernel = Basis.Dense };
          };
          {
            base with
            Milp.presolve = true;
            lp_params = { base.Milp.lp_params with Simplex.kernel = Basis.Dense };
          };
        ]
      in
      let solve p = Milp.solve ~params:p m in
      match List.map solve variants with
      | Milp.Feasible a :: rest ->
        List.for_all
          (function
            | Milp.Feasible b ->
              abs_float (a.Simplex.objective -. b.Simplex.objective) < 1e-6
              && Model.check_feasible m (fun v -> b.Simplex.values.(v)) = Ok ()
              && Certify.solution m b = Certify.Certified
            | _ -> false)
          rest
      | _ ->
        (* The planted witness guarantees feasibility. *)
        false)

(* ---------- pinned Eq.(3)-shaped CI guard ---------- *)

(* A fixed miniature of formulation (3): 3 contexts x 4 operations x
   4 PEs with one-hot assignment rows, per-(context, PE) capacity
   rows, per-PE stress knapsacks and wear-aggregation equalities. The
   guard pins the *engine actually firing*: nonzero row removals and
   variable fixings on this instance, every round bounded, and the
   reduced solve certifying against the original. A presolve
   regression that silently stops reducing Eq.(3) fails here, not in
   a benchmark nobody re-runs. *)
let eq3_pinned_model () =
  let m = Model.create () in
  let nctx = 3 and nops = 4 and npes = 4 in
  let x = Array.init nctx (fun _ -> Array.make_matrix nops npes (-1)) in
  for c = 0 to nctx - 1 do
    for o = 0 to nops - 1 do
      (* operation o in context c may sit on its home PE o or on PE
         (o+1) mod npes: a pruned candidate set, as after §IV.C. *)
      let cands = [ o; (o + 1) mod npes ] in
      List.iter
        (fun pe -> x.(c).(o).(pe) <- Model.add_binary ~name:(Printf.sprintf "OP_%d_%d_%d" c o pe) m)
        cands;
      ignore
        (Model.add_constraint m
           (Expr.sum (List.map (fun pe -> Expr.var x.(c).(o).(pe)) cands))
           Model.Eq 1.0)
    done;
    for pe = 0 to npes - 1 do
      let users =
        List.filter_map
          (fun o -> if x.(c).(o).(pe) >= 0 then Some (Expr.var x.(c).(o).(pe)) else None)
          (List.init nops Fun.id)
      in
      if users <> [] then ignore (Model.add_constraint m (Expr.sum users) Model.Le 1.0)
    done
  done;
  (* Per-PE stress knapsack and wear aggregate across contexts. *)
  for pe = 0 to npes - 1 do
    let terms = ref [] in
    for c = 0 to nctx - 1 do
      for o = 0 to nops - 1 do
        if x.(c).(o).(pe) >= 0 then
          terms := Expr.var ~coef:1.5 x.(c).(o).(pe) :: !terms
      done
    done;
    ignore (Model.add_constraint m (Expr.sum !terms) Model.Le 4.6);
    let s = Model.add_var ~name:(Printf.sprintf "wear_%d" pe) ~lb:0.0 ~ub:100.0 m in
    ignore
      (Model.add_constraint m
         (Expr.sub (Expr.var s) (Expr.sum !terms))
         Model.Eq 0.0)
  done;
  m

let test_ci_guard_eq3_reductions () =
  let m = eq3_pinned_model () in
  let t = get_reduced (Presolve.run m) in
  let r = Presolve.reductions t in
  Alcotest.(check bool) "rows removed" true (r.Presolve.rows_removed > 0);
  Alcotest.(check bool) "vars eliminated" true
    (r.Presolve.vars_fixed + r.Presolve.vars_substituted > 0);
  Alcotest.(check bool) "rounds bounded" true (r.Presolve.rounds <= 10);
  Alcotest.(check bool) "nnz accounting nonnegative" true
    (r.Presolve.nnz_removed >= 0 && r.Presolve.nnz_fillin >= 0);
  Alcotest.(check bool) "nnz removed and fill-in are exclusive" true
    (r.Presolve.nnz_removed = 0 || r.Presolve.nnz_fillin = 0);
  (* Per-rule table is consistent with the aggregates. *)
  let total_apps =
    List.fold_left (fun a (_, s) -> a + s.Presolve.applications) 0 r.Presolve.per_rule
  in
  Alcotest.(check bool) "some rule fired" true (total_apps > 0);
  let params = { Milp.default_params with Milp.first_solution = false } in
  match Milp.solve ~params m with
  | Milp.Feasible sol -> (
    match Certify.solution m sol with
    | Certify.Certified -> ()
    | v -> Alcotest.failf "pinned instance rejected: %a" Certify.pp_verdict v)
  | _ -> Alcotest.fail "pinned Eq.(3) instance must be feasible"

(* The sparse LU kernel's reason to exist: on the Eq.(3) structure its
   factors plus eta file stay far below the dense kernel's m² explicit
   inverse at the end of the same LP solve. *)
let test_eq3_sparse_footprint () =
  let m = eq3_pinned_model () in
  let nrows = Model.num_constraints m in
  let fill_after_solve kernel =
    let st = Simplex.assemble ~params:{ Simplex.default_params with Simplex.kernel } m in
    ignore (get_optimal (Simplex.solve_state st));
    (Simplex.state_stats st).Simplex.fill_in
  in
  let dense = fill_after_solve Basis.Dense and sparse = fill_after_solve Basis.Sparse_lu in
  Alcotest.(check int) "dense footprint is m²" (nrows * nrows) dense;
  if sparse >= dense then
    Alcotest.failf "sparse LU fill %d not below dense m² = %d" sparse dense

let test_postsolve_identity_on_no_reduction () =
  (* A model presolve cannot touch: dense, all bounds active, no
     singletons. Postsolve must then be the identity embedding. *)
  let m = Model.create () in
  let x = Model.add_var ~ub:1.0 m and y = Model.add_var ~ub:1.0 m in
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var ~coef:0.7 x) (Expr.var ~coef:0.3 y))
       Model.Le 0.5);
  ignore
    (Model.add_constraint m
       (Expr.add (Expr.var ~coef:0.3 x) (Expr.var ~coef:0.7 y))
       Model.Le 0.5);
  Model.set_objective m Model.Maximize (Expr.add (Expr.var x) (Expr.var y));
  let t = get_reduced (Presolve.run m) in
  let values = solve_and_certify m t in
  Alcotest.(check (float 1e-6)) "symmetric optimum" 1.0 (values.(x) +. values.(y))

let () =
  Alcotest.run "presolve"
    [
      ( "rules",
        [
          Alcotest.test_case "redundant row" `Quick test_redundant_row;
          Alcotest.test_case "forcing row" `Quick test_forcing_row;
          Alcotest.test_case "integer bound tightening" `Quick
            test_bound_tighten_integer_rounding;
          Alcotest.test_case "synonym substitution" `Quick test_synonym_subst;
          Alcotest.test_case "synonym substitution, infinite bound" `Quick
            test_synonym_subst_infinite_bound;
          Alcotest.test_case "implied-free column" `Quick test_free_col_subst;
          Alcotest.test_case "coefficient strengthening" `Quick test_coef_strengthen;
          Alcotest.test_case "clique reduction" `Quick test_clique_reduce;
          Alcotest.test_case "partly counted one-hot clique" `Quick
            test_clique_partial_one_hot;
          Alcotest.test_case "clique probing" `Quick test_probe;
          Alcotest.test_case "empty-row infeasibility" `Quick
            test_empty_row_infeasibility;
          Alcotest.test_case "starved one-hot row stops the run" `Quick
            test_starved_one_hot_stops_at_row;
          Alcotest.test_case "postsolve identity" `Quick
            test_postsolve_identity_on_no_reduction;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_planted_never_infeasible;
          QCheck_alcotest.to_alcotest prop_milp_presolve_equivalence;
          QCheck_alcotest.to_alcotest prop_poisoned_matches_enumeration;
        ] );
      ( "ci-guard",
        [
          Alcotest.test_case "pinned Eq.(3) reductions" `Quick test_ci_guard_eq3_reductions;
          Alcotest.test_case "pinned Eq.(3) sparse LU footprint" `Quick
            test_eq3_sparse_footprint;
        ] );
    ]
