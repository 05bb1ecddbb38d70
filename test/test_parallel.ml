(* Tests for the domain-parallel solve layer: the work-sharing pool,
   per-task Rng streams, and [Remap.solve_both]'s concurrent Freeze
   and Rotate runs, which return the same pair whether they ran at
   once or in order. *)

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

(* A submitter whose own tasks are all claimed waits for them; it
   never runs a task of another batch, which could keep it busy long
   after its own batch settled. Batch A's second task blocks on a
   worker while a third domain's batch B has an unclaimed task and a
   nested batch C settles, waking every waiter. *)
let test_pool_submitter_runs_own_batch () =
  let p = Pool.create ~domains:2 in
  let me = Domain.self () in
  let worker_started = Atomic.make false in
  let mine_done = Atomic.make false in
  let release = Atomic.make false in
  let b1_runner = Atomic.make None in
  let rec wait_for flag =
    if not (Atomic.get flag) then begin
      Domain.cpu_relax ();
      wait_for flag
    end
  in
  let t_b =
    Domain.spawn (fun () ->
        wait_for mine_done;
        Pool.run p
          [|
            (fun () ->
              (* b0, run by this submitter: settle a nested batch, then
                 give the waiting submitter time to steal b1. *)
              Pool.run p [| (fun () -> ()) |];
              let grace = Budget.create ~deadline_s:0.2 () in
              while Atomic.get b1_runner = None && not (Budget.expired grace) do
                Domain.cpu_relax ()
              done;
              Atomic.set release true);
            (fun () -> Atomic.set b1_runner (Some (Domain.self ())));
          |])
  in
  Pool.run p
    (Array.init 2 (fun _ () ->
         if Domain.self () = me then begin
           (* Hold this task until the worker has claimed the other. *)
           wait_for worker_started;
           Atomic.set mine_done true
         end
         else begin
           Atomic.set worker_started true;
           wait_for release
         end));
  Domain.join t_b;
  Pool.shutdown p;
  Alcotest.(check bool) "b1 ran" true (Atomic.get b1_runner <> None);
  Alcotest.(check bool) "not on the submitter of batch A" true
    (Atomic.get b1_runner <> Some me)

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

(* ---------- concurrent Freeze and Rotate ---------- *)

let bench_placed name =
  let design = Benchmarks.generate (Option.get (Benchmarks.find name)) in
  (design, Placer.aging_unaware design)

let check_remap design (r : Remap.result) =
  Alcotest.(check bool) "mapping valid" true (Mapping.validate design r.Remap.mapping = Ok ());
  Alcotest.(check bool) "audit clean" true (Audit.ok r.Remap.audit);
  Alcotest.(check bool) "cpd not worse" true
    (r.Remap.new_cpd_ns <= r.Remap.baseline_cpd_ns +. 1e-9)

let test_parallel_remap_audit_clean () =
  List.iter
    (fun name ->
      let design, baseline = bench_placed name in
      let fr, rr = Remap.solve_both design baseline in
      check_remap design fr;
      check_remap design rr)
    [ "B3"; "B10" ]

let test_parallel_remap_tiny () =
  let design = Benchmarks.tiny () in
  let baseline = Placer.aging_unaware design in
  check_remap design (Remap.solve ~mode:Rotation.Rotate design baseline)

let same_result what (a : Remap.result) (b : Remap.result) =
  Alcotest.(check bool) (what ^ " mapping") true (Mapping.equal a.Remap.mapping b.Remap.mapping);
  Alcotest.(check (float 0.0)) (what ^ " st_target") a.Remap.st_target b.Remap.st_target;
  Alcotest.(check int) (what ^ " outer iterations") a.Remap.outer_iterations
    b.Remap.outer_iterations;
  Alcotest.(check string) (what ^ " rung") (Remap.rung_to_string a.Remap.rung)
    (Remap.rung_to_string b.Remap.rung)

(* [solve_both] inside a task that keeps [Pool.get 2] busy: the other
   domain is held until the solve returns, so the two modes run in
   order on the solving domain. The pair must equal the one an idle
   pool returns. On a 1-core host [Pool.get 2] has one domain and both
   calls run in order. *)
let test_busy_pool_same_pair () =
  let design, baseline = bench_placed "B10" in
  let idle = Remap.solve_both design baseline in
  let solved = Atomic.make false in
  let busy =
    Pool.map (Pool.get 2)
      (fun first ->
        if first then begin
          let r = Remap.solve_both design baseline in
          Atomic.set solved true;
          Some r
        end
        else begin
          while not (Atomic.get solved) do
            Domain.cpu_relax ()
          done;
          None
        end)
      [| true; false |]
  in
  let bf, br = Option.get busy.(0) in
  same_result "freeze" (fst idle) bf;
  same_result "rotate" (snd idle) br

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
          Alcotest.test_case "submitter runs own batch" `Quick
            test_pool_submitter_runs_own_batch;
          Alcotest.test_case "get memoized" `Quick test_pool_get_memoized;
        ] );
      ( "rng",
        [ Alcotest.test_case "split_n determinism" `Quick test_rng_split_n_deterministic ] );
      ( "remap",
        [
          Alcotest.test_case "tiny rotate" `Quick test_parallel_remap_tiny;
          Alcotest.test_case "busy pool same pair" `Quick test_busy_pool_same_pair;
          Alcotest.test_case "table-i audit clean" `Slow test_parallel_remap_audit_clean;
        ] );
    ]
