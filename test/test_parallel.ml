(* Tests for the domain-parallel solve layer: the work-sharing pool,
   per-task Rng streams, and parallel per-context remap passing the
   same audit gate as the sequential pipeline. *)

open Agingfp_cgrra
module Pool = Agingfp_util.Pool
module Budget = Agingfp_util.Budget
module Rng = Agingfp_util.Rng
module Placer = Agingfp_place.Placer
module Rotation = Agingfp_floorplan.Rotation
module Remap = Agingfp_floorplan.Remap
module Audit = Agingfp_floorplan.Audit

(* Pools in the test process: size 4 exercises real cross-domain
   hand-off even on a single-core host (domains still interleave).
   [~clamp:false] opts out of the core-count clamp on purpose — these
   tests are about cross-domain correctness, not throughput. *)
let pool4 = Pool.get ~clamp:false 4

(* ---------- Pool ---------- *)

let test_pool_map_ordering () =
  let xs = Array.init 100 (fun i -> i) in
  let ys = Pool.map pool4 (fun i -> i * i) xs in
  Alcotest.(check (array int)) "results land at input index"
    (Array.map (fun i -> i * i) xs)
    ys

let test_pool_map_empty () =
  Alcotest.(check (array int)) "empty batch" [||] (Pool.map pool4 (fun i -> i) [||])

let test_pool_size_one_sequential () =
  (* A size-1 pool runs everything on the submitter, in order. *)
  let p = Pool.create ~domains:1 in
  let order = ref [] in
  let ys = Pool.map p (fun i -> order := i :: !order; i + 1) (Array.init 10 (fun i -> i)) in
  Pool.shutdown p;
  Alcotest.(check (array int)) "results" (Array.init 10 (fun i -> i + 1)) ys;
  Alcotest.(check (list int)) "executed in submission order"
    (List.init 10 (fun i -> 9 - i))
    !order

exception Boom of int

let test_pool_exception_propagation () =
  let ran = Array.make 8 false in
  let raised =
    try
      ignore
        (Pool.map pool4
           (fun i ->
             ran.(i) <- true;
             if i = 3 || i = 5 then raise (Boom i))
           (Array.init 8 (fun i -> i)));
      None
    with Boom i -> Some i
  in
  (* First failure by input index wins, and no task was abandoned. *)
  Alcotest.(check (option int)) "first exception by index" (Some 3) raised;
  Alcotest.(check bool) "every task still ran" true (Array.for_all Fun.id ran)

let test_pool_nested_submission () =
  (* Tasks submitting to the same pool must not deadlock: the waiting
     submitter helps execute. *)
  let outer =
    Pool.map pool4
      (fun i ->
        let inner = Pool.map pool4 (fun j -> j * 10) (Array.init 5 (fun j -> j)) in
        i + Array.fold_left ( + ) 0 inner)
      (Array.init 6 (fun i -> i))
  in
  Alcotest.(check (array int)) "nested sums"
    (Array.init 6 (fun i -> i + 100))
    outer

let test_pool_run_counter () =
  let counter = Atomic.make 0 in
  Pool.run pool4 (Array.init 32 (fun _ () -> Atomic.incr counter));
  Alcotest.(check int) "all bodies ran" 32 (Atomic.get counter)

let test_pool_budget_drain () =
  (* An already-expired budget starts nothing... *)
  let expired = Budget.create ~deadline_s:0.0 () in
  let r = Pool.map_budgeted pool4 ~budget:expired (fun i -> i) (Array.init 16 (fun i -> i)) in
  Alcotest.(check bool) "nothing started" true (Array.for_all (( = ) None) r);
  (* ...an unlimited one runs everything... *)
  let r =
    Pool.map_budgeted pool4 ~budget:Budget.unlimited (fun i -> i * 2)
      (Array.init 16 (fun i -> i))
  in
  Alcotest.(check bool) "all ran" true
    (Array.for_all (( <> ) None) r);
  Alcotest.(check (option int)) "values kept" (Some 30) r.(15);
  (* ...and one that dies mid-batch drains the tail as [None] while
     keeping every result that did complete. *)
  let allowance = Budget.create ~allowance:6 () in
  let r =
    Pool.map_budgeted pool4 ~budget:allowance
      (fun i -> Budget.spend allowance 1; i)
      (Array.init 64 (fun i -> i))
  in
  let completed = Array.to_list r |> List.filter_map Fun.id in
  Alcotest.(check bool) "some completed" true (List.length completed > 0);
  Alcotest.(check bool) "tail drained" true
    (Array.exists (( = ) None) r);
  List.iter (fun i -> Alcotest.(check bool) "value intact" true (i >= 0 && i < 64)) completed

let test_pool_get_memoized () =
  Alcotest.(check bool) "same pool returned" true (Pool.get ~clamp:false 4 == pool4);
  Alcotest.(check int) "size" 4 (Pool.size pool4);
  (* The default path clamps to the core count: never larger than the
     recommendation, and a request within it is honoured exactly. *)
  let rec_jobs = Pool.default_jobs () in
  Alcotest.(check int) "effective_jobs clamps" rec_jobs
    (Pool.effective_jobs (rec_jobs + 7));
  Alcotest.(check int) "effective_jobs floors at 1" 1 (Pool.effective_jobs (-3));
  Alcotest.(check bool) "default get is clamped" true
    (Pool.size (Pool.get (rec_jobs + 7)) = rec_jobs);
  Alcotest.(check int) "in-range request honoured" 1 (Pool.size (Pool.get 1))

(* ---------- Rng splitting ---------- *)

let test_rng_split_n_deterministic () =
  let streams seed =
    Rng.split_n (Rng.create seed) 8 |> Array.map (fun g -> List.init 5 (fun _ -> Rng.int g 1000))
  in
  Alcotest.(check bool) "same seed, same per-task streams" true (streams 42 = streams 42);
  Alcotest.(check bool) "different tasks, different streams" true
    (let s = streams 42 in s.(0) <> s.(1));
  (* Execution order must not matter: drawing from the splits on the
     pool gives the same values as drawing sequentially. *)
  let gens = Rng.split_n (Rng.create 7) 16 in
  let seq = Array.map (fun g -> Rng.int (Rng.copy g) 1_000_000) gens in
  let par = Pool.map pool4 (fun g -> Rng.int g 1_000_000) gens in
  Alcotest.(check (array int)) "pool draws match sequential draws" seq par

(* ---------- parallel remap ---------- *)

let bench_placed name =
  let design = Benchmarks.generate (Option.get (Benchmarks.find name)) in
  (design, Placer.aging_unaware design)

let check_remap design baseline (r : Remap.result) =
  Alcotest.(check bool) "mapping valid" true (Mapping.validate design r.Remap.mapping = Ok ());
  Alcotest.(check bool) "audit clean" true (Audit.ok r.Remap.audit);
  Alcotest.(check bool) "cpd not worse" true
    (r.Remap.new_cpd_ns <= r.Remap.baseline_cpd_ns +. 1e-9);
  ignore baseline

let test_parallel_remap_audit_clean () =
  List.iter
    (fun name ->
      let design, baseline = bench_placed name in
      let params = { Remap.default_params with Remap.jobs = 4 } in
      check_remap design baseline (Remap.solve ~params ~mode:Rotation.Freeze design baseline);
      check_remap design baseline (Remap.solve ~params ~mode:Rotation.Rotate design baseline))
    [ "B3"; "B10" ]

let test_parallel_remap_tiny () =
  let design = Benchmarks.tiny () in
  let baseline = Placer.aging_unaware design in
  let params = { Remap.default_params with Remap.jobs = 2 } in
  check_remap design baseline (Remap.solve ~params ~mode:Rotation.Rotate design baseline)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_pool_map_ordering;
          Alcotest.test_case "map empty" `Quick test_pool_map_empty;
          Alcotest.test_case "size-1 sequential" `Quick test_pool_size_one_sequential;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception_propagation;
          Alcotest.test_case "nested submission" `Quick test_pool_nested_submission;
          Alcotest.test_case "run counter" `Quick test_pool_run_counter;
          Alcotest.test_case "budget drain" `Quick test_pool_budget_drain;
          Alcotest.test_case "get memoized" `Quick test_pool_get_memoized;
        ] );
      ( "rng",
        [ Alcotest.test_case "split_n determinism" `Quick test_rng_split_n_deterministic ] );
      ( "remap",
        [
          Alcotest.test_case "tiny rotate" `Quick test_parallel_remap_tiny;
          Alcotest.test_case "table-i audit clean" `Slow test_parallel_remap_audit_clean;
        ] );
    ]
