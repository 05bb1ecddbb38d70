(* Fixture tests for the codelint static analyzer (lib/lintcode).
   Every rule gets at least one positive fixture (the rule must fire)
   and one negative fixture (same shape, but compliant — the rule must
   stay quiet), plus waiver coverage: expression, binding and floating
   [@codelint.allow] forms, a missing-justification waiver, and an
   unknown-rule waiver. All fixtures go through [Lintcode.lint_string]
   with paths chosen to land in (or out of) the per-rule scopes of
   [Lintcode.default_config]. *)

module Lintcode = Agingfp_lintcode.Lintcode
module Json = Agingfp_lintcode.Json

let rules_of findings = List.map (fun f -> f.Lintcode.rule) findings

let lint ?config ~file src = Lintcode.lint_string ?config ~file src

let check_fires rule findings =
  if not (List.mem rule (rules_of findings)) then
    Alcotest.failf "expected a %s finding, got [%s]" rule
      (String.concat "; " (rules_of findings))

let check_quiet ?only findings =
  let findings =
    match only with
    | None -> findings
    | Some rule -> List.filter (fun f -> f.Lintcode.rule = rule) findings
  in
  match findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "expected no findings, got %d, first: %a"
      (List.length findings) Lintcode.pp_finding f

(* ---------- pool-capture ---------- *)

let pool_capture_positive () =
  check_fires "pool-capture"
    (lint ~file:"lib/place/fixture.ml"
       {|
let total pool xs =
  let acc = ref 0 in
  let _ = Pool.map pool (fun x -> acc := !acc + x) xs in
  !acc
|})

let pool_capture_hashtbl_positive () =
  check_fires "pool-capture"
    (lint ~file:"lib/place/fixture.ml"
       {|
let index pool xs =
  let seen = Hashtbl.create 16 in
  let _ = Pool.map pool (fun x -> Hashtbl.replace seen x true) xs in
  seen
|})

let pool_capture_negative_local_ref () =
  (* The ref is bound inside the closure: no sharing across tasks. *)
  check_quiet
    (lint ~file:"lib/place/fixture.ml"
       {|
let total pool xs =
  Pool.map pool
    (fun x ->
      let acc = ref 0 in
      acc := !acc + x;
      !acc)
    xs
|})

let pool_capture_negative_mutex () =
  check_quiet ~only:"pool-capture"
    (lint ~file:"lib/place/fixture.ml"
       {|
let total pool xs =
  let acc = ref 0 in
  let m = Mutex.create () in
  let _ =
    Pool.map pool
      (fun x -> Mutex.protect m (fun () -> acc := !acc + x))
      xs
  in
  !acc
|})

let pool_capture_negative_array_slot () =
  (* Per-index array writes are the blessed result-collection pattern. *)
  check_quiet
    (lint ~file:"lib/place/fixture.ml"
       {|
let collect pool xs =
  let out = Array.make (Array.length xs) 0 in
  let _ = Pool.map pool (fun i -> out.(i) <- i * i) xs in
  out
|})

(* ---------- budget-poll ---------- *)

(* Default threshold is 100 expression nodes; fixtures stay small, so
   drop it to make the recursion fixture "long-running". *)
let tiny_threshold = { Lintcode.default_config with recursion_threshold = 5 }

let budget_poll_while_positive () =
  check_fires "budget-poll"
    (lint ~file:"lib/lp/fixture.ml"
       {|
let spin state =
  while not state.converged do
    improve state
  done
|})

let budget_poll_while_negative () =
  check_quiet
    (lint ~file:"lib/lp/fixture.ml"
       {|
let spin budget state =
  while not state.converged do
    Budget.checkpoint budget;
    improve state
  done
|})

let budget_poll_rec_positive () =
  check_fires "budget-poll"
    (lint ~config:tiny_threshold ~file:"lib/floorplan/fixture.ml"
       {|
let rec descend node best =
  match node.children with
  | [] -> min best node.cost
  | kids -> List.fold_left (fun acc k -> descend k acc) best kids
|})

let budget_poll_rec_negative_budget () =
  check_quiet
    (lint ~config:tiny_threshold ~file:"lib/floorplan/fixture.ml"
       {|
let rec descend budget node best =
  if Budget.expired budget then best
  else
    match node.children with
    | [] -> min best node.cost
    | kids -> List.fold_left (fun acc k -> descend budget k acc) best kids
|})

let budget_poll_negative_scope () =
  (* Same unpolled loop, but outside the solver prefixes. *)
  check_quiet
    (lint ~file:"lib/util/fixture.ml"
       {|
let spin state =
  while not state.converged do
    improve state
  done
|})

(* ---------- no-failwith ---------- *)

let no_failwith_positive () =
  check_fires "no-failwith"
    (lint ~file:"lib/cgrra/fixture.ml" {|let f () = failwith "broken"|})

let no_failwith_invalid_arg_positive () =
  check_fires "no-failwith"
    (lint ~file:"lib/cgrra/fixture.ml" {|let f () = invalid_arg "f: bad"|})

let no_failwith_assert_false_positive () =
  check_fires "no-failwith"
    (lint ~file:"lib/cgrra/fixture.ml"
       {|let f = function Some x -> x | None -> assert false|})

let no_failwith_negative_invariant () =
  check_quiet
    (lint ~file:"lib/cgrra/fixture.ml"
       {|let f () = Invariant.fail ~where:"Fixture.f" "broken"|})

let no_failwith_negative_scope () =
  (* bin/ and bench/ may use bare failwith (CLI arg errors, etc.). *)
  check_quiet (lint ~file:"bin/fixture.ml" {|let f () = failwith "usage"|})

(* ---------- det-order ---------- *)

let det_order_fold_positive () =
  check_fires "det-order"
    (lint ~file:"lib/lp/fixture.ml"
       {|let names tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []|})

let det_order_fold_negative_sorted () =
  check_quiet ~only:"det-order"
    (lint ~file:"lib/lp/fixture.ml"
       {|
let names tbl =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
|})

let det_order_fold_negative_pipeline_sorted () =
  (* |> desugars to a nested apply; the ancestor walk must still see
     the sort downstream. *)
  check_quiet ~only:"det-order"
    (lint ~file:"lib/lp/fixture.ml"
       {|
let names tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort_uniq compare
|})

let det_order_self_init_positive () =
  check_fires "det-order"
    (lint ~file:"lib/util/fixture.ml" {|let seed () = Random.self_init ()|})

let det_order_wall_clock_positive () =
  check_fires "det-order"
    (lint ~file:"lib/lp/fixture.ml"
       {|let stamp () = Unix.gettimeofday ()|})

let det_order_wall_clock_negative_scope () =
  (* Wall-clock reads are only flagged inside solver modules. *)
  check_quiet
    (lint ~file:"lib/util/fixture.ml"
       {|let stamp () = Unix.gettimeofday ()|})

(* ---------- float-eq ---------- *)

let float_eq_positive_literal () =
  check_fires "float-eq"
    (lint ~file:"lib/lp/fixture.ml" {|let zeroish x = x = 0.0|})

let float_eq_positive_compare () =
  (* Floatness is expression-syntactic: a constraint on the argument
     expression is visible, one buried in the function pattern is not. *)
  check_fires "float-eq"
    (lint ~file:"lib/linalg/fixture.ml"
       {|let order a b = compare (a : float) b|})

let float_eq_negative_float_equal () =
  check_quiet
    (lint ~file:"lib/lp/fixture.ml"
       {|let zeroish x = Float.equal x 0.0|})

let float_eq_negative_ints () =
  check_quiet (lint ~file:"lib/lp/fixture.ml" {|let same a b = a = b + 1|})

let float_eq_negative_scope () =
  (* Only numeric modules (lib/lp, lib/linalg) are in scope. *)
  check_quiet (lint ~file:"lib/cgrra/fixture.ml" {|let zeroish x = x = 0.0|})

(* ---------- waivers ---------- *)

let waiver_expression () =
  check_quiet
    (lint ~file:"lib/lp/fixture.ml"
       {|let zeroish x = (x = 0.0) [@codelint.allow "float-eq" "fixture"]|})

let waiver_binding () =
  check_quiet
    (lint ~file:"lib/lp/fixture.ml"
       {|let zeroish x = x = 0.0 [@@codelint.allow "float-eq" "fixture"]|})

let waiver_floating () =
  check_quiet
    (lint ~file:"lib/lp/fixture.ml"
       {|
[@@@codelint.allow "float-eq" "fixture-wide waiver"]

let zeroish x = x = 0.0
let oneish x = x = 1.0
|})

let waiver_wrong_rule_does_not_mask () =
  (* A waiver for one rule must not suppress a different rule. *)
  check_fires "float-eq"
    (lint ~file:"lib/lp/fixture.ml"
       {|let zeroish x = (x = 0.0) [@codelint.allow "det-order" "fixture"]|})

let waiver_missing_justification () =
  let findings =
    lint ~file:"lib/lp/fixture.ml"
      {|let zeroish x = (x = 0.0) [@codelint.allow "float-eq"]|}
  in
  check_fires "waiver" findings;
  (* A malformed waiver must not suppress the underlying finding. *)
  check_fires "float-eq" findings

let waiver_unknown_rule () =
  check_fires "waiver"
    (lint ~file:"lib/lp/fixture.ml"
       {|let f () = () [@codelint.allow "no-such-rule" "oops"]|})

(* ---------- parse errors and output plumbing ---------- *)

let parse_error_reported () =
  check_fires "parse-error" (lint ~file:"lib/lp/fixture.ml" "let let let")

let json_roundtrip_shape () =
  let findings = lint ~file:"lib/lp/fixture.ml" {|let zeroish x = x = 0.0|} in
  let s = Json.to_string (Lintcode.findings_json findings) in
  List.iter
    (fun needle ->
      let present =
        let n = String.length needle and len = String.length s in
        let rec at i = i + n <= len && (String.sub s i n = needle || at (i + 1)) in
        at 0
      in
      if not present then
        Alcotest.failf "JSON output %s missing field %s" s needle)
    [ {|"tool"|}; {|"findings"|}; {|"rule"|}; {|"severity"|}; {|"file"|};
      {|"line"|}; {|"col"|}; {|"message"|} ]

let every_rule_documented () =
  List.iter
    (fun (id, doc) ->
      if String.length doc = 0 then Alcotest.failf "rule %s has no blurb" id)
    Lintcode.rules

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "codelint"
    [
      ( "pool-capture",
        [
          tc "ref capture fires" pool_capture_positive;
          tc "hashtbl capture fires" pool_capture_hashtbl_positive;
          tc "closure-local ref quiet" pool_capture_negative_local_ref;
          tc "mutex in scope quiet" pool_capture_negative_mutex;
          tc "array slot writes quiet" pool_capture_negative_array_slot;
        ] );
      ( "budget-poll",
        [
          tc "unpolled while fires" budget_poll_while_positive;
          tc "checkpointed while quiet" budget_poll_while_negative;
          tc "unpolled recursion fires" budget_poll_rec_positive;
          tc "budget-guarded recursion quiet" budget_poll_rec_negative_budget;
          tc "outside solver scope quiet" budget_poll_negative_scope;
        ] );
      ( "no-failwith",
        [
          tc "failwith fires" no_failwith_positive;
          tc "invalid_arg fires" no_failwith_invalid_arg_positive;
          tc "assert false fires" no_failwith_assert_false_positive;
          tc "Invariant.fail quiet" no_failwith_negative_invariant;
          tc "bin/ out of scope" no_failwith_negative_scope;
        ] );
      ( "det-order",
        [
          tc "bare Hashtbl.fold fires" det_order_fold_positive;
          tc "sorted fold quiet" det_order_fold_negative_sorted;
          tc "piped sort quiet" det_order_fold_negative_pipeline_sorted;
          tc "Random.self_init fires" det_order_self_init_positive;
          tc "solver wall-clock fires" det_order_wall_clock_positive;
          tc "util wall-clock quiet" det_order_wall_clock_negative_scope;
        ] );
      ( "float-eq",
        [
          tc "= on float literal fires" float_eq_positive_literal;
          tc "compare on floats fires" float_eq_positive_compare;
          tc "Float.equal quiet" float_eq_negative_float_equal;
          tc "int comparison quiet" float_eq_negative_ints;
          tc "outside numeric scope quiet" float_eq_negative_scope;
        ] );
      ( "waivers",
        [
          tc "expression attribute" waiver_expression;
          tc "binding attribute" waiver_binding;
          tc "floating attribute" waiver_floating;
          tc "wrong rule does not mask" waiver_wrong_rule_does_not_mask;
          tc "missing justification flagged" waiver_missing_justification;
          tc "unknown rule flagged" waiver_unknown_rule;
        ] );
      ( "plumbing",
        [
          tc "parse error reported" parse_error_reported;
          tc "json has shared fields" json_roundtrip_shape;
          tc "every rule documented" every_rule_documented;
        ] );
    ]
