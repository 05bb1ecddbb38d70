(* Unit and property tests for the util library: deterministic RNG,
   coordinate geometry (the 8 orientations), stats, table rendering. *)

module Rng = Agingfp_util.Rng
module Coord = Agingfp_util.Coord
module Stats = Agingfp_util.Stats
module Ascii_table = Agingfp_util.Ascii_table
module Heap = Agingfp_util.Heap
module Rat = Agingfp_util.Rat
module Invariant = Agingfp_util.Invariant

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 13)
  done

let test_rng_float_range () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float r 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_rng_copy_independent () =
  let a = Rng.create 5 in
  let _ = Rng.int a 100 in
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.int a 9999) (Rng.int b 9999)

let test_rng_split () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

(* The SplitMix64 stream itself, pinned: every baseline placement,
   benchmark and rotation draws from it, so a change to how the state
   is stored must leave these values as they are. *)
let test_rng_golden_stream () =
  let r = Rng.create 42 in
  Alcotest.(check (list int)) "ints"
    [ 707901357; 478109794; 342191872; 668283657 ]
    (List.init 4 (fun _ -> Rng.int r 1_000_000_007));
  Alcotest.(check (float 0.0)) "float" 0x1.378b0b448904p-5 (Rng.float r 1.0);
  Alcotest.(check (float 0.0)) "float" 0x1.bc8863f47901bp-1 (Rng.float r 1.0);
  let s = Rng.split r in
  Alcotest.(check bool) "bool" false (Rng.bool r);
  Alcotest.(check int) "after split" 572550172 (Rng.int r 1_000_000_007);
  Alcotest.(check int) "split" 328684806 (Rng.int s 1_000_000_007)

let test_rng_shuffle_permutation () =
  let r = Rng.create 3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_uniformity () =
  (* Coarse chi-square style sanity check on bucket counts. *)
  let r = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket within 5% of uniform" true
        (abs (c - (n / 10)) < n / 20))
    buckets

(* ---------- Coord ---------- *)

let test_manhattan () =
  Alcotest.(check int) "dist" 7 (Coord.manhattan (Coord.make 0 0) (Coord.make 3 4));
  Alcotest.(check int) "symmetric" 7 (Coord.manhattan (Coord.make 3 4) (Coord.make 0 0));
  Alcotest.(check int) "zero" 0 (Coord.manhattan (Coord.make 2 2) (Coord.make 2 2))

let test_orientation_count () =
  Alcotest.(check int) "8 orientations" 8 (Array.length Coord.all_orientations)

let test_transform_preserves_distance () =
  let p = Coord.make 2 5 and q = Coord.make 7 1 in
  Array.iter
    (fun o ->
      let p' = Coord.transform o p and q' = Coord.transform o q in
      Alcotest.(check int)
        (Printf.sprintf "distance preserved under %s" (Coord.orientation_to_string o))
        (Coord.manhattan p q) (Coord.manhattan p' q'))
    Coord.all_orientations

let test_transform_distinct () =
  (* On an asymmetric shape the 8 orientations are pairwise distinct
     (after normalization) — the paper's "8 unique orientations". *)
  let shape = [ Coord.make 0 0; Coord.make 1 0; Coord.make 2 0; Coord.make 2 1 ] in
  let images =
    Array.to_list Coord.all_orientations
    |> List.map (fun o ->
           let ps, _ = Coord.normalize (Coord.transform_all o shape) in
           List.sort Coord.compare ps)
  in
  let distinct = List.sort_uniq compare images in
  Alcotest.(check int) "8 distinct images" 8 (List.length distinct)

let test_r180_is_involution () =
  let p = Coord.make 3 (-2) in
  let q = Coord.transform Coord.R180 (Coord.transform Coord.R180 p) in
  Alcotest.(check bool) "R180 twice = id" true (Coord.equal p q)

let test_mirror_is_involution () =
  let p = Coord.make 3 (-2) in
  let q = Coord.transform Coord.MR0 (Coord.transform Coord.MR0 p) in
  Alcotest.(check bool) "MR0 twice = id" true (Coord.equal p q)

let test_normalize () =
  let ps, off = Coord.normalize [ Coord.make 3 4; Coord.make 5 4; Coord.make 3 7 ] in
  let mn, _ = Coord.bounding_box ps in
  Alcotest.(check bool) "min corner at origin" true (Coord.equal mn (Coord.make 0 0));
  Alcotest.(check bool) "offset recorded" true (Coord.equal off (Coord.make 3 4))

let test_bounding_box () =
  let mn, mx = Coord.bounding_box [ Coord.make 1 5; Coord.make 4 2; Coord.make 0 3 ] in
  Alcotest.(check bool) "min" true (Coord.equal mn (Coord.make 0 2));
  Alcotest.(check bool) "max" true (Coord.equal mx (Coord.make 4 5))

(* ---------- Stats ---------- *)

let test_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])
let test_mean_empty () = check_float "empty mean" 0.0 (Stats.mean [||])

let test_geomean () = check_float "geomean" 2.0 (Stats.geomean [| 1.; 2.; 4. |])

let test_max_by () =
  Alcotest.(check int) "max_by" 3 (Stats.max_by float_of_int [| 1; 3; 2 |])

let test_stddev () =
  check_float "stddev" 2.0 (Stats.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |])

let test_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.; 1.; 2.; 3. |] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  Alcotest.(check int) "counts sum" 4 (Array.fold_left (fun a (_, c) -> a + c) 0 h)

(* ---------- Ascii_table ---------- *)

let test_table_alignment () =
  let s =
    Ascii_table.render ~header:[| "a"; "long" |] [ [| "10"; "x" |]; [| "2"; "yy" |] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  let widths = List.map String.length lines in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_short_row_padded () =
  let s = Ascii_table.render ~header:[| "a"; "b" |] [ [| "1" |] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_table_wide_row_rejected () =
  Alcotest.check_raises "too wide" (Invalid_argument "Ascii_table.render: row too wide")
    (fun () -> ignore (Ascii_table.render ~header:[| "a" |] [ [| "1"; "2" |] ]))

let test_render_grid () =
  let s = Ascii_table.render_grid ~w:3 ~h:2 (fun x y -> string_of_int ((y * 3) + x)) in
  Alcotest.(check string) "grid" "0 1 2\n3 4 5" s

(* ---------- Heap ---------- *)

let test_heap_basic () =
  let h = Heap.create Int.compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "size" 5 (Heap.size h);
  Alcotest.(check (option int)) "peek" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop 1 again" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Heap.pop h);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Heap.pop h);
  Alcotest.(check (option int)) "pop 5" (Some 5) (Heap.pop h);
  Alcotest.(check (option int)) "exhausted" None (Heap.pop h)

let test_heap_max_mode () =
  let h = Heap.create (fun a b -> Int.compare b a) in
  List.iter (Heap.push h) [ 2; 9; 4 ];
  Alcotest.(check (option int)) "max first" (Some 9) (Heap.pop h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 50) (int_bound 1000))
    (fun xs ->
      let h = Heap.create Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let prop_heap_interleaved =
  QCheck2.Test.make ~name:"heap invariant survives interleaved push/pop" ~count:200
    QCheck2.Gen.(list_size (int_range 1 60) (int_bound 100))
    (fun ops ->
      let h = Heap.create Int.compare in
      let model = ref [] in
      List.for_all
        (fun x ->
          if x mod 3 = 0 && !model <> [] then begin
            let sorted = List.sort Int.compare !model in
            let expected = List.hd sorted in
            model := List.tl sorted;
            Heap.pop h = Some expected
          end
          else begin
            Heap.push h x;
            model := x :: !model;
            true
          end)
        ops)

(* ---------- Rat ---------- *)

let test_rat_of_float_exact () =
  (* 0.1 is not 1/10 in binary: the exact sum of ten copies of the
     double 0.1 is NOT 1 (while the rounded float sum famously drifts).
     Exactness also means repeated addition agrees with
     multiplication, which float fold-left does not. *)
  let tenth = Rat.of_float 0.1 in
  let sum = ref Rat.zero in
  for _ = 1 to 10 do
    sum := Rat.add !sum tenth
  done;
  Alcotest.(check bool) "10 * double(0.1) is not exactly 1" false
    (Rat.equal !sum Rat.one);
  Alcotest.(check bool) "repeated add = mul" true
    (Rat.equal !sum (Rat.mul (Rat.of_int 10) tenth));
  (* ...but within one float ulp of 1 when rounded back. *)
  check_float "to_float close to 1" 1.0 (Rat.to_float !sum)

let test_rat_ring_ops () =
  let q = Rat.of_float in
  Alcotest.(check string) "add" "2" (Rat.to_string (Rat.add (q 0.75) (q 1.25)));
  Alcotest.(check string) "sub" "-1/2" (Rat.to_string (Rat.sub (q 0.25) (q 0.75)));
  Alcotest.(check string) "mul" "3/8" (Rat.to_string (Rat.mul (q 0.75) (q 0.5)));
  Alcotest.(check string) "neg" "-3/4" (Rat.to_string (Rat.neg (q 0.75)));
  Alcotest.(check int) "sign" (-1) (Rat.sign (Rat.sub (q 1.0) (q 1.5)))

let test_rat_compare () =
  let xs = [ -3.5; -1.0; -0.125; 0.0; 1e-9; 0.3; 1.0; 1024.0 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check int)
            (Printf.sprintf "compare %g %g" a b)
            (Float.compare a b)
            (Rat.compare (Rat.of_float a) (Rat.of_float b)))
        xs)
    xs

let test_rat_is_integer () =
  Alcotest.(check bool) "42" true (Rat.is_integer (Rat.of_float 42.0));
  Alcotest.(check bool) "0" true (Rat.is_integer Rat.zero);
  Alcotest.(check bool) "-7" true (Rat.is_integer (Rat.of_int (-7)));
  Alcotest.(check bool) "0.5" false (Rat.is_integer (Rat.of_float 0.5));
  Alcotest.(check bool) "2^60" true (Rat.is_integer (Rat.of_float (Float.ldexp 1.0 60)))

let test_rat_large_magnitude () =
  (* (2^60 + 1)^2 needs > 64 bits; check against the algebraic identity
     2^120 + 2^61 + 1 computed piecewise. *)
  let a = Rat.add (Rat.of_float (Float.ldexp 1.0 60)) Rat.one in
  let sq = Rat.mul a a in
  let expect =
    Rat.add
      (Rat.add
         (Rat.mul (Rat.of_float (Float.ldexp 1.0 60)) (Rat.of_float (Float.ldexp 1.0 60)))
         (Rat.of_float (Float.ldexp 1.0 61)))
      Rat.one
  in
  Alcotest.(check bool) "(2^60+1)^2 = 2^120 + 2^61 + 1" true (Rat.equal sq expect);
  Alcotest.(check bool) "bigger than 2^120" true
    (Rat.compare sq (Rat.mul (Rat.of_float (Float.ldexp 1.0 60))
                       (Rat.of_float (Float.ldexp 1.0 60))) > 0)

let test_rat_to_float_roundtrip () =
  List.iter
    (fun x -> check_float "roundtrip" x (Rat.to_float (Rat.of_float x)))
    [ 0.0; 1.0; -1.0; 0.1; -0.3; 1e-30; 1e30; Float.ldexp 1.0 60; 5.128 ]

let test_rat_of_float_rejects () =
  Alcotest.check_raises "nan" (Invalid_argument "Rat.of_float: not a finite value")
    (fun () -> ignore (Rat.of_float Float.nan));
  Alcotest.check_raises "inf" (Invalid_argument "Rat.of_float: not a finite value")
    (fun () -> ignore (Rat.of_float Float.infinity))

let test_invariant_message () =
  Alcotest.check_raises "fail raises Violation"
    (Invariant.Violation "invariant violated in Here: x = 3") (fun () ->
      Invariant.fail ~where:"Here" "x = %d" 3)

(* ---------- Properties ---------- *)

let rat_float_gen =
  (* Finite doubles across magnitudes, including negatives and exact
     small integers. *)
  QCheck2.Gen.(
    oneof
      [
        float_bound_inclusive 1e6;
        map (fun x -> -.x) (float_bound_inclusive 1e6);
        map float_of_int (int_range (-1000) 1000);
        map (fun (m, e) -> Float.ldexp m (e - 30)) (tup2 (float_bound_inclusive 1.0) (int_bound 60));
      ])

let prop_rat_add_sub_cancel =
  QCheck2.Test.make ~name:"rat: (a + b) - b = a exactly" ~count:1000
    QCheck2.Gen.(tup2 rat_float_gen rat_float_gen)
    (fun (a, b) ->
      let qa = Rat.of_float a and qb = Rat.of_float b in
      Rat.equal (Rat.sub (Rat.add qa qb) qb) qa)

let prop_rat_mul_distributes =
  QCheck2.Test.make ~name:"rat: a*(b + c) = a*b + a*c exactly" ~count:1000
    QCheck2.Gen.(tup3 rat_float_gen rat_float_gen rat_float_gen)
    (fun (a, b, c) ->
      let qa = Rat.of_float a and qb = Rat.of_float b and qc = Rat.of_float c in
      Rat.equal (Rat.mul qa (Rat.add qb qc)) (Rat.add (Rat.mul qa qb) (Rat.mul qa qc)))

let prop_rat_compare_matches_float =
  (* Dyadic comparison must agree with IEEE comparison on exact
     conversions. *)
  QCheck2.Test.make ~name:"rat: compare agrees with Float.compare" ~count:1000
    QCheck2.Gen.(tup2 rat_float_gen rat_float_gen)
    (fun (a, b) -> Rat.compare (Rat.of_float a) (Rat.of_float b) = Float.compare a b)

let prop_manhattan_triangle =
  QCheck2.Test.make ~name:"manhattan satisfies triangle inequality" ~count:500
    QCheck2.Gen.(
      tup3
        (tup2 (int_bound 100) (int_bound 100))
        (tup2 (int_bound 100) (int_bound 100))
        (tup2 (int_bound 100) (int_bound 100)))
    (fun ((ax, ay), (bx, by), (cx, cy)) ->
      let a = Coord.make ax ay and b = Coord.make bx by and c = Coord.make cx cy in
      Coord.manhattan a c <= Coord.manhattan a b + Coord.manhattan b c)

let prop_orientations_preserve_pairwise_distances =
  QCheck2.Test.make ~name:"all orientations preserve pairwise Manhattan distances"
    ~count:300
    QCheck2.Gen.(
      tup2 (int_bound 7)
        (list_size (int_range 2 6) (tup2 (int_bound 20) (int_bound 20))))
    (fun (oi, pts) ->
      let o = Coord.all_orientations.(oi) in
      let ps = List.map (fun (x, y) -> Coord.make x y) pts in
      let qs = Coord.transform_all o ps in
      List.for_all2
        (fun p q ->
          List.for_all2
            (fun p' q' -> Coord.manhattan p p' = Coord.manhattan q q')
            ps qs)
        ps qs)

let prop_shuffle_preserves_multiset =
  QCheck2.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck2.Gen.(tup2 int (list_size (int_range 0 30) (int_bound 10)))
    (fun (seed, xs) ->
      let arr = Array.of_list xs in
      Rng.shuffle (Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

(* ---------- Budget ---------- *)

module Budget = Agingfp_util.Budget

(* A fake monotonic clock the test advances by hand (nanoseconds). *)
let fake_clock () =
  let t = ref 0L in
  let advance_s s = t := Int64.add !t (Int64.of_float (s *. 1e9)) in
  ((fun () -> !t), advance_s)

let test_budget_unlimited () =
  Alcotest.(check bool) "never expires" false (Budget.expired Budget.unlimited);
  Alcotest.(check bool) "is unlimited" true (Budget.is_unlimited Budget.unlimited);
  Alcotest.(check bool)
    "status optimal" true
    (Budget.status Budget.unlimited = Budget.Optimal)

let test_budget_deadline () =
  let clock, advance = fake_clock () in
  let b = Budget.create ~clock ~deadline_s:1.0 () in
  Alcotest.(check bool) "fresh not expired" false (Budget.expired b);
  Alcotest.(check bool) "not unlimited" false (Budget.is_unlimited b);
  advance 0.5;
  Alcotest.(check bool) "halfway not expired" false (Budget.expired b);
  check_float "remaining halfway" 0.5 (Budget.remaining_s b);
  advance 0.6;
  Alcotest.(check bool) "past deadline expired" true (Budget.expired b);
  Alcotest.(check bool) "status deadline" true (Budget.status b = Budget.Deadline);
  check_float "remaining clamps at 0" 0.0 (Budget.remaining_s b);
  check_float "elapsed" 1.1 (Budget.elapsed_s b)

let test_budget_allowance () =
  let b = Budget.create ~allowance:10 () in
  Alcotest.(check bool) "fresh not expired" false (Budget.expired b);
  Budget.spend b 4;
  Alcotest.(check bool) "partial not expired" false (Budget.expired b);
  Budget.spend b 6;
  Alcotest.(check bool) "drained expired" true (Budget.expired b);
  Alcotest.(check bool)
    "status iteration-limit" true
    (Budget.status b = Budget.Iteration_limit)

let test_budget_slice_stricter () =
  let clock, advance = fake_clock () in
  let parent = Budget.create ~clock ~deadline_s:1.0 () in
  advance 0.5;
  (* Half the parent's remaining 0.5 s. *)
  let child = Budget.slice parent ~fraction:0.5 in
  check_float "child gets fraction of remaining" 0.25 (Budget.remaining_s child);
  (* A huge with_deadline child is clamped to the parent's deadline. *)
  let greedy = Budget.with_deadline parent ~deadline_s:100.0 in
  check_float "child clamped to parent" 0.5 (Budget.remaining_s greedy);
  advance 0.3;
  Alcotest.(check bool) "child expired first" true (Budget.expired child);
  Alcotest.(check bool) "parent still alive" false (Budget.expired parent);
  advance 0.3;
  Alcotest.(check bool) "parent expired" true (Budget.expired parent);
  Alcotest.(check bool) "greedy child expired with parent" true (Budget.expired greedy)

let test_budget_spend_propagates () =
  let parent = Budget.create ~allowance:5 () in
  let child = Budget.slice parent ~fraction:0.5 in
  Budget.spend child 5;
  Alcotest.(check bool) "parent drained via child" true (Budget.expired parent);
  Alcotest.(check bool) "child sees inherited dryness" true (Budget.expired child)

(* A budget carved from an already-expired parent must be born expired
   — the daemon relies on this: a request whose deadline passed while
   it queued falls straight down the degradation ladder instead of
   starting an open-ended solve. *)
let test_budget_child_of_expired_parent () =
  let clock, advance = fake_clock () in
  let parent = Budget.create ~clock ~deadline_s:1.0 () in
  advance 2.0;
  Alcotest.(check bool) "parent expired" true (Budget.expired parent);
  let sliced = Budget.slice parent ~fraction:0.5 in
  Alcotest.(check bool) "slice born expired" true (Budget.expired sliced);
  check_float "slice has nothing left" 0.0 (Budget.remaining_s sliced);
  let capped = Budget.with_deadline parent ~deadline_s:10.0 in
  Alcotest.(check bool) "with_deadline born expired" true (Budget.expired capped);
  check_float "with_deadline has nothing left" 0.0 (Budget.remaining_s capped)

let test_budget_worst () =
  let open Budget in
  Alcotest.(check bool) "fault beats deadline" true
    (worst Deadline (Fault "x") = Fault "x");
  Alcotest.(check bool) "deadline beats iteration" true
    (worst (Fault "x") Deadline = Fault "x");
  Alcotest.(check bool) "iteration beats node" true
    (worst Node_limit Iteration_limit = Iteration_limit);
  Alcotest.(check bool) "optimal loses to all" true (worst Optimal Node_limit = Node_limit);
  Alcotest.(check bool) "optimal vs optimal" true (worst Optimal Optimal = Optimal)

(* ---------- Pool lifecycle ---------- *)

module Pool = Agingfp_util.Pool

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~domains:2 in
  let hits = Atomic.make 0 in
  Pool.run p (Array.init 4 (fun _ () -> Atomic.incr hits));
  Alcotest.(check int) "batch ran" 4 (Atomic.get hits);
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.(check pass) "double shutdown is a no-op" () ()

let test_pool_get_after_shutdown () =
  let p = Pool.get 2 in
  Pool.shutdown p;
  let q = Pool.get 2 in
  Alcotest.(check bool) "registry replaces a drained pool" true (p != q);
  let doubled = Pool.map q (fun x -> 2 * x) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "replacement pool works" [| 2; 4; 6 |] doubled;
  Pool.shutdown q

(* The daemon's drain path: a signal handler may only flip the atomic
   ([request_stop]); the joining shutdown happens later from normal
   context and must still work (and stay idempotent). *)
let test_pool_request_stop_then_shutdown () =
  let p = Pool.create ~domains:2 in
  Pool.run p (Array.init 2 (fun _ () -> ()));
  Pool.request_stop p;
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.(check pass) "stop then shutdown drains cleanly" () ()

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
        ] );
      ( "coord",
        [
          Alcotest.test_case "manhattan" `Quick test_manhattan;
          Alcotest.test_case "orientation count" `Quick test_orientation_count;
          Alcotest.test_case "transform preserves distance" `Quick
            test_transform_preserves_distance;
          Alcotest.test_case "8 distinct images" `Quick test_transform_distinct;
          Alcotest.test_case "R180 involution" `Quick test_r180_is_involution;
          Alcotest.test_case "mirror involution" `Quick test_mirror_is_involution;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "bounding box" `Quick test_bounding_box;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "max_by" `Quick test_max_by;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "ascii_table",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "short row padded" `Quick test_table_short_row_padded;
          Alcotest.test_case "wide row rejected" `Quick test_table_wide_row_rejected;
          Alcotest.test_case "render grid" `Quick test_render_grid;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "max mode" `Quick test_heap_max_mode;
        ] );
      ( "rat",
        [
          Alcotest.test_case "of_float exact" `Quick test_rat_of_float_exact;
          Alcotest.test_case "ring ops" `Quick test_rat_ring_ops;
          Alcotest.test_case "compare" `Quick test_rat_compare;
          Alcotest.test_case "is_integer" `Quick test_rat_is_integer;
          Alcotest.test_case "large magnitude" `Quick test_rat_large_magnitude;
          Alcotest.test_case "to_float roundtrip" `Quick test_rat_to_float_roundtrip;
          Alcotest.test_case "rejects nan/inf" `Quick test_rat_of_float_rejects;
          Alcotest.test_case "invariant message" `Quick test_invariant_message;
        ] );
      ( "budget",
        [
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "allowance" `Quick test_budget_allowance;
          Alcotest.test_case "slice stricter than parent" `Quick
            test_budget_slice_stricter;
          Alcotest.test_case "spend propagates upward" `Quick
            test_budget_spend_propagates;
          Alcotest.test_case "child of expired parent born expired" `Quick
            test_budget_child_of_expired_parent;
          Alcotest.test_case "worst stop reason" `Quick test_budget_worst;
        ] );
      ( "pool",
        [
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "get after shutdown" `Quick test_pool_get_after_shutdown;
          Alcotest.test_case "request_stop then shutdown" `Quick
            test_pool_request_stop_then_shutdown;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_rat_add_sub_cancel;
          QCheck_alcotest.to_alcotest prop_rat_mul_distributes;
          QCheck_alcotest.to_alcotest prop_rat_compare_matches_float;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_interleaved;
          QCheck_alcotest.to_alcotest prop_manhattan_triangle;
          QCheck_alcotest.to_alcotest prop_orientations_preserve_pairwise_distances;
          QCheck_alcotest.to_alcotest prop_shuffle_preserves_multiset;
        ] );
    ]
