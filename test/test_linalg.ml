(* Tests for dense matrices, the linear solvers backing the thermal
   model, and the sparse LU that factors the simplex basis. *)

module Matrix = Agingfp_linalg.Matrix
module Solve = Agingfp_linalg.Solve
module Lu = Agingfp_linalg.Lu
module Rng = Agingfp_util.Rng

let check_vec msg expected actual =
  Alcotest.(check (array (float 1e-7))) msg expected actual

(* ---------- Matrix ---------- *)

let test_create_zero () =
  let m = Matrix.create ~rows:2 ~cols:3 in
  Alcotest.(check (float 0.)) "zero" 0.0 (Matrix.get m 1 2)

let test_identity () =
  let m = Matrix.identity 3 in
  Alcotest.(check (float 0.)) "diag" 1.0 (Matrix.get m 1 1);
  Alcotest.(check (float 0.)) "off-diag" 0.0 (Matrix.get m 0 2)

let test_of_arrays_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged rows")
    (fun () -> ignore (Matrix.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

let test_mul_vec () =
  let m = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_vec "product" [| 5.; 11. |] (Matrix.mul_vec m [| 1.; 2. |])

let test_transpose () =
  let m = Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Matrix.transpose m in
  Alcotest.(check int) "rows" 3 (Matrix.rows t);
  Alcotest.(check (float 0.)) "entry" 6.0 (Matrix.get t 2 1)

let test_row_ops () =
  let m = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Matrix.swap_rows m 0 1;
  Alcotest.(check (float 0.)) "swapped" 3.0 (Matrix.get m 0 0);
  Matrix.scale_row m 0 2.0;
  Alcotest.(check (float 0.)) "scaled" 6.0 (Matrix.get m 0 0);
  Matrix.axpy_row m ~src:0 ~dst:1 1.0;
  Alcotest.(check (float 0.)) "axpy" 7.0 (Matrix.get m 1 0)

(* ---------- Solvers ---------- *)

let random_spd rng n =
  (* A = M^T M + n*I is symmetric positive definite. *)
  let m = Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set m i j (Rng.float rng 2.0 -. 1.0)
    done
  done;
  let a = Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (Matrix.get m k i *. Matrix.get m k j)
      done;
      Matrix.set a i j (!acc +. if i = j then float_of_int n else 0.0)
    done
  done;
  a

let test_lu_known () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  check_vec "solution" [| 1.; 2. |] (Solve.lu a [| 4.; 7. |])

let test_lu_pivoting () =
  (* Zero leading pivot forces a row swap. *)
  let a = Matrix.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  check_vec "solution" [| 2.; 1. |] (Solve.lu a [| 1.; 2. |])

let test_lu_singular () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Solve.Singular (fun () ->
      ignore (Solve.lu a [| 1.; 2. |]))

let test_cholesky_known () =
  let a = Matrix.of_arrays [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  let x = Solve.cholesky a [| 8.; 7. |] in
  check_vec "solution" [| 1.25; 1.5 |] x

let test_cholesky_not_pd () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "not PD" Solve.Singular (fun () ->
      ignore (Solve.cholesky a [| 1.; 1. |]))

let test_gauss_seidel_grid () =
  (* A small diagonally dominant grid Laplacian, as in the thermal model. *)
  let a =
    Matrix.of_arrays
      [|
        [| 3.; -1.; -1.; 0. |];
        [| -1.; 3.; 0.; -1. |];
        [| -1.; 0.; 3.; -1. |];
        [| 0.; -1.; -1.; 3. |];
      |]
  in
  let b = [| 1.; 2.; 3.; 4. |] in
  let x = Solve.gauss_seidel a b in
  Alcotest.(check bool) "residual small" true (Solve.residual_norm a x b < 1e-6)

let test_solvers_agree () =
  let rng = Rng.create 12 in
  for n = 2 to 12 do
    let a = random_spd rng n in
    let b = Array.init n (fun _ -> Rng.float rng 10.0) in
    let x1 = Solve.lu a b in
    let x2 = Solve.cholesky a b in
    let x3 = Solve.gauss_seidel ~tol:1e-12 a b in
    Array.iteri
      (fun i v ->
        Alcotest.(check (float 1e-5)) "lu vs cholesky" v x2.(i);
        Alcotest.(check (float 1e-4)) "lu vs gauss-seidel" v x3.(i))
      x1
  done

(* ---------- Sparse LU kernel ---------- *)

(* Strictly diagonally dominant, hence nonsingular, and deliberately
   nonsymmetric: the sparse kernel must agree with the dense reference
   on general matrices, not just SPD ones. *)
let random_dd rng n =
  let a = Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set a i j (Rng.float rng 2.0 -. 1.0)
    done;
    Matrix.set a i i (Matrix.get a i i +. float_of_int n)
  done;
  a

let dense_with_column a r col =
  let n = Matrix.rows a in
  let a' = Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set a' i j (if j = r then col.(i) else Matrix.get a i j)
    done
  done;
  a'

let test_sparse_lu_known () =
  let t = Lu.of_matrix (Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |]) in
  check_vec "ftran" [| 1.; 2. |] (Lu.solve t [| 4.; 7. |])

let test_sparse_lu_pivoting () =
  let t = Lu.of_matrix (Matrix.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |]) in
  check_vec "permuted" [| 2.; 1. |] (Lu.solve t [| 1.; 2. |])

let test_sparse_lu_singular () =
  Alcotest.check_raises "singular" Lu.Singular (fun () ->
      ignore (Lu.of_matrix (Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |])))

(* A refactorization that dies on a singular column must not leave
   half-rebuilt factors that still count as ready. *)
let test_sparse_lu_singular_refactor () =
  let cols a j = ([| 0; 1 |], [| Matrix.get a 0 j; Matrix.get a 1 j |]) in
  let t = Lu.create 2 in
  Lu.factorize t ~col:(cols (Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |]));
  Alcotest.check_raises "singular" Lu.Singular (fun () ->
      Lu.factorize t ~col:(cols (Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |])));
  Alcotest.(check bool) "not factored" false (Lu.is_factored t);
  Alcotest.(check int) "failed factorization not counted" 1 (Lu.factor_count t);
  match Lu.ftran t [| 1.; 1. |] with
  | () -> Alcotest.fail "ftran ran on the factors of a failed factorization"
  | exception Invalid_argument _ -> ()

let test_sparse_lu_btran () =
  (* Aᵀ y = c through the sparse kernel vs the dense LU on Aᵀ. *)
  let a = Matrix.of_arrays [| [| 3.; 1.; 0. |]; [| 0.; 2.; 1. |]; [| 1.; 0.; 4. |] |] in
  let c = [| 1.; -2.; 3. |] in
  check_vec "btran" (Solve.lu (Matrix.transpose a) c)
    (Lu.solve_transposed (Lu.of_matrix a) c)

let test_sparse_lu_update () =
  (* Replace column 1 via a product-form eta; solves must then match
     the dense LU of the explicitly rebuilt matrix. *)
  let a = Matrix.of_arrays [| [| 4.; 1.; 0. |]; [| 1.; 3.; 1. |]; [| 0.; 1.; 5. |] |] in
  let t = Lu.of_matrix a in
  let col = [| 2.; 5.; 1. |] in
  let w = Lu.solve t col in
  Lu.update t ~r:1 ~w;
  Alcotest.(check int) "eta recorded" 1 (Lu.eta_count t);
  let a' = dense_with_column a 1 col in
  let b = [| 1.; 2.; 3. |] in
  check_vec "ftran after eta" (Solve.lu a' b) (Lu.solve t b);
  check_vec "btran after eta"
    (Solve.lu (Matrix.transpose a') b)
    (Lu.solve_transposed t b)

let test_sparse_lu_accounting () =
  let t = Lu.of_matrix (random_dd (Rng.create 7) 6) in
  Alcotest.(check bool) "fill counted" true (Lu.fill t >= 6);
  Alcotest.(check bool) "factored" true (Lu.is_factored t);
  Alcotest.(check int) "one factorization" 1 (Lu.factor_count t);
  Alcotest.(check int) "no etas yet" 0 (Lu.eta_count t);
  Alcotest.(check int) "eta file empty" 0 (Lu.eta_nnz t)

(* The solves run once or twice per simplex pivot, so they must not
   allocate: a boxed float per factor or eta entry was most of their
   cost. A 120-row sparse basis, factorized and carrying 24 eta
   updates, is solved 100 times through each entry point; the minor
   heap must not grow, beyond what the measuring itself costs. *)
let test_sparse_lu_solves_allocate_nothing () =
  let m = 120 and updates = 24 in
  let rng = Rng.create 11 in
  let sparse_col j =
    (* Dominant diagonal plus three off-diagonal entries in distinct
       rows: nonsingular, and sparse like a simplex basis. *)
    let rows = ref [ j ] and coefs = ref [ 8.0 +. Rng.float rng 1.0 ] in
    while List.length !rows < 4 do
      let i = Rng.int rng m in
      if not (List.mem i !rows) then begin
        rows := i :: !rows;
        coefs := (Rng.float rng 2.0 -. 1.0) :: !coefs
      end
    done;
    (Array.of_list !rows, Array.of_list !coefs)
  in
  let cols = Array.init m sparse_col in
  let lu = Lu.create m in
  Lu.factorize lu ~col:(fun j -> cols.(j));
  let applied = ref 0 in
  while !applied < updates do
    let r = Rng.int rng m in
    let rows, coefs = sparse_col r in
    let w = Array.make m 0.0 in
    Array.iteri (fun k i -> w.(i) <- coefs.(k)) rows;
    Lu.ftran lu w;
    if abs_float w.(r) > 0.01 then begin
      Lu.update lu ~r ~w;
      incr applied
    end
  done;
  Alcotest.(check int) "etas applied" updates (Lu.eta_count lu);
  let rhs = Array.init m (fun _ -> Rng.float rng 2.0 -. 1.0) in
  let v = Array.make m 0.0 in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let overhead = minor_words (fun () -> ()) in
  let check name solve =
    let words =
      minor_words (fun () ->
          for _ = 1 to 100 do
            Array.blit rhs 0 v 0 m;
            solve v
          done)
    in
    Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0 (words -. overhead)
  in
  check "Lu.ftran" (Lu.ftran lu);
  check "Lu.btran" (Lu.btran lu)

let prop_sparse_lu_matches_dense =
  QCheck2.Test.make
    ~name:"sparse LU ftran/btran match the dense reference on random systems"
    ~count:200
    QCheck2.Gen.(tup2 int (int_range 1 20))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a = random_dd rng n in
      let b = Array.init n (fun _ -> Rng.float rng 10.0 -. 5.0) in
      let t = Lu.of_matrix a in
      let close x y = Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-7) x y in
      close (Lu.solve t b) (Solve.lu a b)
      && close (Lu.solve_transposed t b) (Solve.lu (Matrix.transpose a) b))

let prop_sparse_lu_eta_chain =
  QCheck2.Test.make
    ~name:"eta-updated factors track the explicitly refactored matrix" ~count:100
    QCheck2.Gen.(tup3 int (int_range 2 12) (int_range 1 4))
    (fun (seed, n, nup) ->
      let rng = Rng.create seed in
      let a = ref (random_dd rng n) in
      let t = Lu.of_matrix !a in
      for _ = 1 to nup do
        let r = Rng.int rng n in
        let col = Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0) in
        (* Keep the replacement well-conditioned: a dominant entry in
           the pivot row guarantees |w.(r)| clears the tolerance. *)
        col.(r) <- col.(r) +. float_of_int n;
        let w = Lu.solve t col in
        if abs_float w.(r) > 0.01 then begin
          Lu.update t ~r ~w;
          a := dense_with_column !a r col
        end
      done;
      let b = Array.init n (fun _ -> Rng.float rng 6.0 -. 3.0) in
      let x = Lu.solve t b and x_ref = Solve.lu !a b in
      let y = Lu.solve_transposed t b
      and y_ref = Solve.lu (Matrix.transpose !a) b in
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-6) x x_ref
      && Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-6) y y_ref)

let prop_lu_solves =
  QCheck2.Test.make ~name:"LU residual is small on random SPD systems" ~count:100
    QCheck2.Gen.(tup2 int (int_range 2 15))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a = random_spd rng n in
      let b = Array.init n (fun _ -> Rng.float rng 10.0 -. 5.0) in
      let x = Solve.lu a b in
      Solve.residual_norm a x b < 1e-6)

let prop_cholesky_matches_lu =
  QCheck2.Test.make ~name:"Cholesky matches LU on SPD systems" ~count:100
    QCheck2.Gen.(tup2 int (int_range 2 15))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let a = random_spd rng n in
      let b = Array.init n (fun _ -> Rng.float rng 4.0) in
      let x1 = Solve.lu a b and x2 = Solve.cholesky a b in
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-5) x1 x2)

let () =
  Alcotest.run "linalg"
    [
      ( "matrix",
        [
          Alcotest.test_case "create zero" `Quick test_create_zero;
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "ragged rejected" `Quick test_of_arrays_ragged;
          Alcotest.test_case "mul_vec" `Quick test_mul_vec;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "row ops" `Quick test_row_ops;
        ] );
      ( "solve",
        [
          Alcotest.test_case "lu known" `Quick test_lu_known;
          Alcotest.test_case "lu pivoting" `Quick test_lu_pivoting;
          Alcotest.test_case "lu singular" `Quick test_lu_singular;
          Alcotest.test_case "cholesky known" `Quick test_cholesky_known;
          Alcotest.test_case "cholesky not PD" `Quick test_cholesky_not_pd;
          Alcotest.test_case "gauss-seidel grid" `Quick test_gauss_seidel_grid;
          Alcotest.test_case "solvers agree" `Quick test_solvers_agree;
        ] );
      ( "sparse-lu",
        [
          Alcotest.test_case "known system" `Quick test_sparse_lu_known;
          Alcotest.test_case "pivoting" `Quick test_sparse_lu_pivoting;
          Alcotest.test_case "singular" `Quick test_sparse_lu_singular;
          Alcotest.test_case "singular refactor unfactors" `Quick
            test_sparse_lu_singular_refactor;
          Alcotest.test_case "btran" `Quick test_sparse_lu_btran;
          Alcotest.test_case "eta update" `Quick test_sparse_lu_update;
          Alcotest.test_case "accounting" `Quick test_sparse_lu_accounting;
          Alcotest.test_case "solves allocate nothing" `Quick
            test_sparse_lu_solves_allocate_nothing;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_lu_solves;
          QCheck_alcotest.to_alcotest prop_cholesky_matches_lu;
          QCheck_alcotest.to_alcotest prop_sparse_lu_matches_dense;
          QCheck_alcotest.to_alcotest prop_sparse_lu_eta_chain;
        ] );
    ]
