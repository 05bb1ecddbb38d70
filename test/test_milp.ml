(* Tests for the explicit branch & bound tree: root heuristics on and
   off, the global dual bound and honest gaps, pseudocost branching,
   and the node store's deterministic plunge-then-jump order. *)

module Expr = Agingfp_lp.Expr
module Model = Agingfp_lp.Model
module Simplex = Agingfp_lp.Simplex
module Milp = Agingfp_lp.Milp
module Node_store = Agingfp_lp.Node_store
module Brancher = Agingfp_lp.Brancher
module Budget = Agingfp_util.Budget
module Rng = Agingfp_util.Rng

let get_feasible = function
  | Milp.Feasible s -> s
  | r -> Alcotest.failf "expected feasible, got %a" Milp.pp_result r

(* Random binary Maximize models, same family as test_lp's brute-force
   cross-check: small enough to enumerate, contested enough to branch. *)
let random_model rng =
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

let base_params = { Milp.default_params with Milp.first_solution = false }

(* A fixed Eq.(3)-flavoured knapsack/assignment mix big enough that the
   search actually builds a tree (the tiny random models often solve at
   the root). *)
let structured_model () =
  let m = Model.create () in
  let n_ops = 7 and n_pes = 4 in
  let x = Array.init n_ops (fun _ -> Array.init n_pes (fun _ -> Model.add_binary m)) in
  for op = 0 to n_ops - 1 do
    ignore
      (Model.add_constraint m
         (Expr.sum (List.init n_pes (fun pe -> Expr.var x.(op).(pe))))
         Model.Eq 1.0)
  done;
  let stress op = 1.0 +. float_of_int ((op * 7) mod 5) /. 4.0 in
  for pe = 0 to n_pes - 1 do
    ignore
      (Model.add_constraint m
         (Expr.sum (List.init n_ops (fun op -> Expr.var ~coef:(stress op) x.(op).(pe))))
         Model.Le 3.6)
  done;
  Model.set_objective m Model.Minimize
    (Expr.sum
       (List.concat
          (List.init n_ops (fun op ->
               List.init n_pes (fun pe ->
                   Expr.var
                     ~coef:(float_of_int (((op * 13) + (pe * 5)) mod 7) /. 7.0)
                     x.(op).(pe))))));
  m

(* ---------- search matrix ---------- *)

(* Root heuristics on and off land on the same optimum of the
   structured instance. *)
let test_combination_matrix () =
  let m = structured_model () in
  let reference =
    (get_feasible (Milp.solve ~params:base_params m)).Simplex.objective
  in
  List.iter
    (fun heuristics ->
      let params = { base_params with Milp.heuristics } in
      let sol = get_feasible (Milp.solve ~params m) in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "heuristics=%b" heuristics)
        reference sol.Simplex.objective)
    [ true; false ]

(* Two runs of the same search agree bit for bit: the point, the node
   count and the dual bound. *)
let test_run_to_run_deterministic () =
  let m = structured_model () in
  let solve () = Milp.solve_with_stats ~params:base_params m in
  let r1, s1 = solve () in
  let r2, s2 = solve () in
  let a = get_feasible r1 and b = get_feasible r2 in
  Alcotest.(check (array (float 0.0))) "values" a.Simplex.values b.Simplex.values;
  Alcotest.(check int) "nodes" s1.Milp.nodes s2.Milp.nodes;
  Alcotest.(check (float 0.0)) "dual bound" s1.Milp.dual_bound s2.Milp.dual_bound

(* ---------- dual bound and gap ---------- *)

let test_proof_closes_gap () =
  let m = structured_model () in
  let result, stats = Milp.solve_with_stats ~params:base_params m in
  let sol = get_feasible result in
  Alcotest.(check (float 1e-9)) "gap closed" 0.0 stats.Milp.gap;
  Alcotest.(check (float 1e-6)) "dual bound = objective" sol.Simplex.objective
    stats.Milp.dual_bound;
  match stats.Milp.stop with
  | Budget.Optimal -> ()
  | r -> Alcotest.failf "expected optimal stop, got %a" Budget.pp_stop_reason r

(* An interrupted search must not claim a proof: gap stays honest
   (positive or infinite) when the node budget cut the search and a
   better point was still reachable. *)
let test_node_limit_gap_honest () =
  (* Deterministically find an instance whose proof needs real
     branching — the structured model and many random ones close at
     the root, where a node limit can never fire. *)
  (* Root heuristics close many random instances at the root — the
     node limit can only fire on a bare tree search. *)
  let bare = { base_params with Milp.heuristics = false } in
  let rec find seed =
    if seed > 500 then Alcotest.fail "no branching instance in 500 seeds"
    else
      let m = random_model (Rng.create seed) in
      let _, full = Milp.solve_with_stats ~params:bare m in
      if full.Milp.nodes >= 5 then (m, full) else find (seed + 1)
  in
  let m, full = find 0 in
  let limited = { bare with Milp.node_limit = 2 } in
  let result, stats = Milp.solve_with_stats ~params:limited m in
  (match stats.Milp.stop with
  | Budget.Node_limit -> ()
  | r -> Alcotest.failf "expected node-limit stop, got %a" Budget.pp_stop_reason r);
  (match result with
  | Milp.Feasible sol ->
    if
      stats.Milp.gap < 1e-9
      && abs_float (sol.Simplex.objective -. full.Milp.dual_bound) > 1e-6
    then Alcotest.fail "interrupted search claimed a zero gap on a suboptimal incumbent"
  | Milp.Infeasible | Milp.Unknown -> ());
  Alcotest.(check bool) "nodes within limit" true (stats.Milp.nodes <= 2)

(* ---------- root heuristics ---------- *)

(* Incumbent seeding is a pure acceleration: the search with root
   heuristics must agree with the bare tree search on status and
   objective. *)
let prop_heuristics_agree =
  QCheck2.Test.make ~name:"heuristics agree with bare search" ~count:100
    QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let m = random_model rng in
      let bare = { base_params with Milp.heuristics = false } in
      match (Milp.solve ~params:bare m, Milp.solve ~params:base_params m) with
      | Milp.Feasible a, Milp.Feasible b ->
        abs_float (a.Simplex.objective -. b.Simplex.objective) <= 1e-6
      | Milp.Infeasible, Milp.Infeasible -> true
      | _ -> false)

(* A heuristic incumbent short-circuits the tree, so it must never be
   able to smuggle an infeasible or fractional point out of the solver:
   whatever comes back feasible is feasible for and integral in the
   ORIGINAL model. *)
let prop_heuristic_incumbents_feasible =
  QCheck2.Test.make ~name:"heuristic incumbents are audit-feasible" ~count:150
    QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let m = random_model rng in
      match Milp.solve ~params:Milp.default_params m with
      | Milp.Feasible sol ->
        Model.check_feasible m (fun v -> sol.Simplex.values.(v)) = Ok ()
        && List.for_all
             (fun v -> Float.round sol.Simplex.values.(v) = sol.Simplex.values.(v))
             (Model.integer_vars m)
      | Milp.Infeasible | Milp.Unknown -> true)

(* ---------- node store determinism ---------- *)

(* The store plunges into the children of the node expanded last and,
   once that dive dies, jumps to the best open bound rather than to the
   newest node. *)
let test_node_store_order () =
  let t = Node_store.create () in
  let add ~parent bound =
    ignore (Node_store.add t ~parent ~depth:0 ~bound ~fixes:[] ~branch:None)
  in
  let take () =
    match Node_store.take t with
    | Some n -> n.Node_store.id
    | None -> Alcotest.fail "empty store"
  in
  add ~parent:(-1) neg_infinity;
  let root = take () in
  List.iter (add ~parent:root) [ 1.0; 2.0; 3.0 ];
  Node_store.finish t;
  let dive = take () in
  add ~parent:dive 5.0;
  Node_store.finish t;
  let rest =
    List.init 3 (fun _ ->
        let id = take () in
        Node_store.finish t;
        id)
  in
  Alcotest.(check (list int)) "plunge, then best bound" [ 0; 3; 4; 1; 2 ]
    (root :: dive :: rest);
  Alcotest.(check bool) "drained" true (Node_store.take t = None)

let test_node_store_dual_bound () =
  let t = Node_store.create () in
  ignore
    (Node_store.add t ~parent:(-1) ~depth:0 ~bound:neg_infinity ~fixes:[] ~branch:None);
  Alcotest.(check (float 0.0)) "root bound" neg_infinity (Node_store.dual_bound t);
  (match Node_store.take t with
  | Some n -> Alcotest.(check int) "root popped" 0 n.Node_store.id
  | None -> Alcotest.fail "empty store");
  (* In flight: the root's bound still anchors the dual bound. *)
  Alcotest.(check (float 0.0)) "in-flight bound" neg_infinity (Node_store.dual_bound t);
  ignore (Node_store.add t ~parent:0 ~depth:1 ~bound:5.0 ~fixes:[] ~branch:None);
  ignore (Node_store.add t ~parent:0 ~depth:1 ~bound:7.0 ~fixes:[] ~branch:None);
  Node_store.finish t;
  Alcotest.(check (float 0.0)) "frontier min" 5.0 (Node_store.dual_bound t);
  (* The dive takes the newest child; the open one still bounds. *)
  (match Node_store.take t with
  | Some n -> Alcotest.(check (float 0.0)) "newest child" 7.0 n.Node_store.bound
  | None -> Alcotest.fail "empty store");
  Alcotest.(check (float 0.0)) "open min" 5.0 (Node_store.dual_bound t);
  Node_store.finish t;
  (match Node_store.take t with
  | Some _ -> Node_store.finish t
  | None -> Alcotest.fail "empty store");
  Alcotest.(check (float 0.0)) "drained" infinity (Node_store.dual_bound t)

(* ---------- brancher ---------- *)

let test_brancher_pseudocost_prefers_observed () =
  let b = Brancher.create ~nvars:3 in
  (* Variable 1 has hurt both children before; variable 0 never
     observed. At equal fractions the observed degrader must win. *)
  Brancher.observe b ~var:1 ~dir:Node_store.Down ~frac:0.5 ~delta:10.0;
  Brancher.observe b ~var:1 ~dir:Node_store.Up ~frac:0.5 ~delta:10.0;
  (match Brancher.select b [ (0, 0.5); (1, 0.5) ] with
  | Some 1 -> ()
  | Some v -> Alcotest.failf "expected var 1, got %d" v
  | None -> Alcotest.fail "no selection");
  Alcotest.(check bool) "var 0 unreliable" true (Brancher.unreliable b ~var:0);
  Alcotest.(check bool) "var 1 reliable" false (Brancher.unreliable b ~var:1)

let () =
  Alcotest.run "milp-tree"
    [
      ( "tree",
        [
          Alcotest.test_case "combination matrix" `Quick test_combination_matrix;
          Alcotest.test_case "run-to-run deterministic" `Quick
            test_run_to_run_deterministic;
          Alcotest.test_case "proof closes gap" `Quick test_proof_closes_gap;
          Alcotest.test_case "node-limit gap honest" `Quick test_node_limit_gap_honest;
        ] );
      ( "node-store",
        [
          Alcotest.test_case "traversal order" `Quick test_node_store_order;
          Alcotest.test_case "dual bound" `Quick test_node_store_dual_bound;
        ] );
      ( "brancher",
        [
          Alcotest.test_case "pseudocost prefers observed" `Quick
            test_brancher_pseudocost_prefers_observed;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_heuristics_agree;
          QCheck_alcotest.to_alcotest prop_heuristic_incumbents_feasible;
        ] );
    ]
