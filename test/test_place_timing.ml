(* Tests for the baseline placer and the static timing analyzer. *)

open Agingfp_cgrra
module Placer = Agingfp_place.Placer
module Analysis = Agingfp_timing.Analysis
module Rng = Agingfp_util.Rng

let mk_op id kind = Op.make ~id ~kind ~bitwidth:16

(* A 2-in 2-out two-layer DFG with known structure. *)
let small_dfg () =
  let ops =
    [|
      mk_op 0 Op.Input; mk_op 1 Op.Input; mk_op 2 Op.Add; mk_op 3 Op.Shift;
      mk_op 4 Op.Output; mk_op 5 Op.Output;
    |]
  in
  Dfg.create ~ops ~edges:[ (0, 2); (1, 2); (1, 3); (2, 4); (3, 5) ]

let small_design () =
  Design.create ~name:"pt" ~fabric:(Fabric.create ~dim:8) [| small_dfg (); small_dfg () |]

(* ---------- placer ---------- *)

let test_greedy_valid () =
  let d = small_design () in
  let m = Placer.greedy d in
  Alcotest.(check bool) "valid" true (Mapping.validate d m = Ok ())

let test_greedy_valid_on_suite () =
  List.iter
    (fun name ->
      let spec = Option.get (Benchmarks.find name) in
      let d = Benchmarks.generate spec in
      let m = Placer.greedy d in
      Alcotest.(check bool) (name ^ " greedy valid") true (Mapping.validate d m = Ok ()))
    [ "B1"; "B10"; "B19"; "B13" ]

let test_anneal_valid_and_no_worse () =
  let d = small_design () in
  let g = Placer.greedy d in
  let a = Placer.anneal d g in
  Alcotest.(check bool) "valid" true (Mapping.validate d a = Ok ());
  for c = 0 to Design.num_contexts d - 1 do
    Alcotest.(check bool) "cost not much worse" true
      (Placer.context_cost d a c <= Placer.context_cost d g c +. 1e-6)
  done

let test_anneal_deterministic () =
  let d = small_design () in
  let m1 = Placer.aging_unaware d in
  let m2 = Placer.aging_unaware d in
  Alcotest.(check bool) "same result" true (Mapping.equal m1 m2)

let test_baseline_compact () =
  (* The aging-unaware baseline concentrates usage: its max accumulated
     stress must clearly exceed the fabric mean (that concentration is
     what the paper's method repairs). *)
  let spec = Option.get (Benchmarks.find "B10") in
  let d = Benchmarks.generate spec in
  let m = Placer.aging_unaware d in
  Alcotest.(check bool) "concentrated" true
    (Stress.max_accumulated d m > 1.5 *. Stress.mean_accumulated d m)

let test_placer_seed_changes_layout () =
  let d = small_design () in
  let p1 = { Placer.default_params with seed = 1 } in
  let p2 = { Placer.default_params with seed = 2 } in
  let m1 = Placer.aging_unaware ~params:p1 d in
  let m2 = Placer.aging_unaware ~params:p2 d in
  (* Not guaranteed different in principle, but with these seeds it is;
     catching accidental seed-ignoring regressions. *)
  Alcotest.(check bool) "different layouts" true (not (Mapping.equal m1 m2))

(* The array kernel against the list-based annealer it replaced
   (test/place_reference.ml): the same RNG draws and float expressions
   must give the same baseline on every Table-I design. *)
let test_anneal_matches_reference () =
  let designs =
    ("tiny", Benchmarks.tiny ())
    :: Array.to_list
         (Array.map
            (fun spec -> (spec.Benchmarks.bname, Benchmarks.generate spec))
            Benchmarks.table1)
  in
  List.iter
    (fun (name, d) ->
      Alcotest.(check bool) (name ^ " same mapping") true
        (Mapping.equal (Placer.aging_unaware d) (Place_reference.aging_unaware d)))
    designs

(* ---------- timing ---------- *)

let line_mapping d =
  (* Place ops left-to-right on row 0/1: op i of ctx c at (i, c). *)
  Mapping.create
    (fun c op -> Fabric.pe_of_coord (Design.fabric d) (Agingfp_util.Coord.make op c))
    d

let test_node_delay_matches_chars () =
  let d = small_design () in
  let dfg = Design.context d 0 in
  for op = 0 to Dfg.num_ops dfg - 1 do
    Alcotest.(check (float 1e-9)) "node delay"
      (Chars.pe_delay_ns (Design.chars d) (Dfg.op dfg op))
      (Analysis.node_delay d ~ctx:0 ~op)
  done

let test_cpd_hand_computed () =
  let d = small_design () in
  let m = line_mapping d in
  let chars = Design.chars d in
  let delay op = Chars.pe_delay_ns chars (Dfg.op (Design.context d 0) op) in
  let wire len = Chars.wire_delay_ns chars len in
  (* Paths in ctx 0 (ops at x = op index, row 0):
     0->2->4: d0 + w(2) + d2 + w(2) + d4
     1->2->4: d1 + w(1) + d2 + w(2) + d4
     1->3->5: d1 + w(2) + d3 + w(2) + d5 *)
  let p1 = delay 0 +. wire 2 +. delay 2 +. wire 2 +. delay 4 in
  let p2 = delay 1 +. wire 1 +. delay 2 +. wire 2 +. delay 4 in
  let p3 = delay 1 +. wire 2 +. delay 3 +. wire 2 +. delay 5 in
  let expected = max p1 (max p2 p3) in
  Alcotest.(check (float 1e-9)) "cpd" expected (Analysis.context_cpd d m 0);
  Alcotest.(check (float 1e-9)) "design cpd = max over ctx" expected (Analysis.cpd d m)

let test_k_longest_ordering_and_count () =
  let d = small_design () in
  let m = line_mapping d in
  let paths = Analysis.k_longest d m ~ctx:0 10 in
  Alcotest.(check int) "3 paths total" 3 (List.length paths);
  let delays = List.map (fun (p : Analysis.path) -> p.Analysis.delay_ns) paths in
  Alcotest.(check bool) "non-increasing" true
    (List.sort (fun a b -> Float.compare b a) delays = delays);
  (* Each reported delay is the exact re-computed path delay. *)
  List.iter
    (fun (p : Analysis.path) ->
      Alcotest.(check (float 1e-9)) "consistent" p.Analysis.delay_ns
        (Analysis.path_delay d m p))
    paths

let test_k_longest_respects_k () =
  let d = small_design () in
  let m = line_mapping d in
  Alcotest.(check int) "k=2" 2 (List.length (Analysis.k_longest d m ~ctx:0 2))

let test_k_longest_min_delay_filter () =
  let d = small_design () in
  let m = line_mapping d in
  let cpd = Analysis.context_cpd d m 0 in
  let paths = Analysis.k_longest d m ~ctx:0 ~min_delay:(cpd -. 1e-9) 10 in
  Alcotest.(check bool) "only critical" true
    (List.for_all (fun (p : Analysis.path) -> p.Analysis.delay_ns >= cpd -. 1e-9) paths);
  Alcotest.(check bool) "at least one" true (paths <> [])

let test_critical_paths () =
  let d = small_design () in
  let m = line_mapping d in
  let cpd = Analysis.context_cpd d m 0 in
  let crit = Analysis.critical_paths d m ~ctx:0 in
  Alcotest.(check bool) "non-empty" true (crit <> []);
  List.iter
    (fun (p : Analysis.path) ->
      Alcotest.(check (float 1e-9)) "achieves cpd" cpd p.Analysis.delay_ns)
    crit

let test_wire_length () =
  let d = small_design () in
  let m = line_mapping d in
  let paths = Analysis.k_longest d m ~ctx:0 1 in
  match paths with
  | [ p ] ->
    let len = Analysis.wire_length d m p in
    Alcotest.(check bool) "positive" true (len > 0);
    (* Re-derive: delay = pe sum + unit * len. *)
    Alcotest.(check (float 1e-9)) "consistent decomposition" p.Analysis.delay_ns
      (Analysis.pe_delay_sum d p
      +. Chars.wire_delay_ns (Design.chars d) len)
  | _ -> Alcotest.fail "expected one path"

let test_monitored_paths_within () =
  let spec = Option.get (Benchmarks.find "B1") in
  let d = Benchmarks.generate spec in
  let m = Placer.aging_unaware d in
  let cpd = Analysis.cpd d m in
  for ctx = 0 to Design.num_contexts d - 1 do
    let paths = Analysis.monitored_paths d m ~ctx () in
    List.iter
      (fun (p : Analysis.path) ->
        Alcotest.(check bool) "within 20% of CPD" true
          (p.Analysis.delay_ns >= (0.8 *. cpd) -. 1e-9))
      paths
  done

(* ---------- properties ---------- *)

let prop_cpd_invariant_under_translation =
  (* Translating a whole context rigidly cannot change its CPD. *)
  QCheck2.Test.make ~name:"CPD invariant under rigid translation" ~count:100
    QCheck2.Gen.(tup2 (int_bound 1) (int_bound 1))
    (fun (dx, dy) ->
      let d = small_design () in
      let m = line_mapping d in
      let translated =
        Mapping.create
          (fun c op ->
            let fabric = Design.fabric d in
            let p = Fabric.coord_of_pe fabric (Mapping.pe_of m ~ctx:c ~op) in
            Fabric.pe_of_coord fabric
              (Agingfp_util.Coord.make (p.Agingfp_util.Coord.x + dx)
                 (p.Agingfp_util.Coord.y + dy)))
          d
      in
      abs_float (Analysis.cpd d m -. Analysis.cpd d translated) < 1e-9)

let prop_k_longest_monotone_in_k =
  QCheck2.Test.make ~name:"k-longest: larger k extends the same prefix" ~count:50
    QCheck2.Gen.(int_range 1 3)
    (fun k ->
      let d = small_design () in
      let m = line_mapping d in
      let a = Analysis.k_longest d m ~ctx:0 k in
      let b = Analysis.k_longest d m ~ctx:0 (k + 1) in
      let delays l = List.map (fun (p : Analysis.path) -> p.Analysis.delay_ns) l in
      let da = delays a and db = delays b in
      List.length da <= List.length db
      && List.for_all2 (fun x y -> abs_float (x -. y) < 1e-9) da
           (List.filteri (fun i _ -> i < List.length da) db))

let prop_random_mapping_cpd_ge_pe_delays =
  QCheck2.Test.make ~name:"CPD at least the PE-delay-only bound" ~count:100
    QCheck2.Gen.int
    (fun seed ->
      let d = small_design () in
      let rng = Rng.create seed in
      (* Random valid mapping: shuffle PEs per context. *)
      let npes = Fabric.num_pes (Design.fabric d) in
      let m =
        Mapping.of_arrays
          (Array.init (Design.num_contexts d) (fun c ->
               let perm = Array.init npes (fun i -> i) in
               Rng.shuffle rng perm;
               Array.init (Dfg.num_ops (Design.context d c)) (fun op -> perm.(op))))
      in
      match Mapping.validate d m with
      | Error _ -> false
      | Ok () ->
        (* Wireless lower bound: longest chain of PE delays. *)
        let bound ctx =
          let dfg = Design.context d ctx in
          let n = Dfg.num_ops dfg in
          let dp = Array.make n 0.0 in
          Array.iter
            (fun v ->
              let own = Analysis.node_delay d ~ctx ~op:v in
              let best =
                List.fold_left (fun acc p -> max acc dp.(p)) 0.0 (Dfg.preds dfg v)
              in
              dp.(v) <- own +. best)
            (Dfg.topological_order dfg);
          Array.fold_left max 0.0 dp
        in
        Analysis.cpd d m >= max (bound 0) (bound 1) -. 1e-9)

let () =
  Alcotest.run "place+timing"
    [
      ( "placer",
        [
          Alcotest.test_case "greedy valid" `Quick test_greedy_valid;
          Alcotest.test_case "greedy valid on suite" `Quick test_greedy_valid_on_suite;
          Alcotest.test_case "anneal valid, no worse" `Quick test_anneal_valid_and_no_worse;
          Alcotest.test_case "deterministic" `Quick test_anneal_deterministic;
          Alcotest.test_case "baseline concentrates stress" `Quick test_baseline_compact;
          Alcotest.test_case "seed changes layout" `Quick test_placer_seed_changes_layout;
          Alcotest.test_case "kernel matches list reference" `Quick
            test_anneal_matches_reference;
        ] );
      ( "timing",
        [
          Alcotest.test_case "node delay" `Quick test_node_delay_matches_chars;
          Alcotest.test_case "hand-computed CPD" `Quick test_cpd_hand_computed;
          Alcotest.test_case "k-longest order/count" `Quick
            test_k_longest_ordering_and_count;
          Alcotest.test_case "k-longest respects k" `Quick test_k_longest_respects_k;
          Alcotest.test_case "min-delay filter" `Quick test_k_longest_min_delay_filter;
          Alcotest.test_case "critical paths" `Quick test_critical_paths;
          Alcotest.test_case "wire length decomposition" `Quick test_wire_length;
          Alcotest.test_case "monitored within 20%" `Quick test_monitored_paths_within;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cpd_invariant_under_translation;
          QCheck_alcotest.to_alcotest prop_k_longest_monotone_in_k;
          QCheck_alcotest.to_alcotest prop_random_mapping_cpd_ge_pe_delays;
        ] );
    ]
