(* Abstract simplex basis kernel.

   Two interchangeable implementations behind one factorize / ftran /
   btran / update interface:

   - [Sparse_lu] (the default): the sparse LU kernel from
     {!Agingfp_linalg.Lu} — approximate-Markowitz factorization plus a
     product-form eta file, O(nnz) per solve/update.
   - [Dense]: the explicit dense inverse the solver used before the
     kernel refactor, kept as the reference implementation the
     equivalence property tests (and the bench kernel scenario)
     compare against — O(m²) per update.

   The kernel also owns the accounting the solver surfaces through
   [Simplex.state_stats]: factorization count, eta updates, fill of
   the live factors, and how many refactorizations were forced by
   measured residual drift (the counter itself is bumped by the
   simplex, which is the layer that measures ‖B x_B − b‖∞). *)

module Invariant = Agingfp_util.Invariant

module Lu = Agingfp_linalg.Lu

type kind = Dense | Sparse_lu

exception Singular

let pp_kind ppf = function
  | Dense -> Format.pp_print_string ppf "dense"
  | Sparse_lu -> Format.pp_print_string ppf "sparse-lu"

type impl =
  | D of { binv : float array array; scratch : float array }
  | S of Lu.t

type t = {
  mutable m : int;
  mutable impl : impl;
  mutable n_factor : int;
  mutable n_eta : int;          (* updates since the last factorize *)
  mutable total_eta : int;
  mutable n_drift : int;
  mutable last_fill : int;
  mutable factored : bool;  (* the live factors match the current basis *)
}

let create kind m =
  if m < 0 then Invariant.invalid ~where:"Basis.create" "negative dimension";
  let cap = max m 1 in
  let impl =
    match kind with
    | Dense -> D { binv = Array.make_matrix cap cap 0.0; scratch = Array.make cap 0.0 }
    | Sparse_lu -> S (Lu.create m)
  in
  { m; impl; n_factor = 0; n_eta = 0; total_eta = 0; n_drift = 0; last_fill = 0;
    factored = false }

let kind t = match t.impl with D _ -> Dense | S _ -> Sparse_lu
let dim t = t.m

(* Grow (or shrink) the basis dimension in place. The live factors are
   invalidated — the owner must [factorize] before the next solve —
   but the lifetime counters survive, so [Simplex.state_stats] keeps
   accounting across cut-row appends. *)
let resize t m' =
  if m' < 0 then Invariant.invalid ~where:"Basis.resize" "negative dimension";
  if m' <> t.m then begin
    (match t.impl with
    | D { binv; _ } ->
      let cap = Array.length binv in
      if m' > cap then begin
        let cap' = max m' (2 * cap) in
        t.impl <-
          D { binv = Array.make_matrix cap' cap' 0.0; scratch = Array.make cap' 0.0 }
      end
    | S _ -> t.impl <- S (Lu.create m'));
    t.m <- m';
    t.n_eta <- 0;
    t.last_fill <- 0;
    t.factored <- false
  end

(* ---------- dense reference implementation ---------- *)

(* Explicit inverse by Gauss–Jordan with partial pivoting — the exact
   routine the pre-kernel solver ran as [refactor_binv]. *)
let dense_factorize d m ~col =
  let binv = d in
  let bmat = Array.make_matrix (max m 1) (max m 1) 0.0 in
  for i = 0 to m - 1 do
    let rows, coefs = col i in
    for k = 0 to Array.length rows - 1 do
      bmat.(rows.(k)).(i) <- coefs.(k)
    done
  done;
  let inv = Array.make_matrix (max m 1) (max m 1) 0.0 in
  for i = 0 to m - 1 do
    inv.(i).(i) <- 1.0
  done;
  for k = 0 to m - 1 do
    let piv = ref k in
    for i = k + 1 to m - 1 do
      if abs_float bmat.(i).(k) > abs_float bmat.(!piv).(k) then piv := i
    done;
    if abs_float bmat.(!piv).(k) < 1e-11 then raise Singular;
    if !piv <> k then begin
      let t = bmat.(k) in
      bmat.(k) <- bmat.(!piv);
      bmat.(!piv) <- t;
      let t = inv.(k) in
      inv.(k) <- inv.(!piv);
      inv.(!piv) <- t
    end;
    let d = bmat.(k).(k) in
    for c = 0 to m - 1 do
      bmat.(k).(c) <- bmat.(k).(c) /. d;
      inv.(k).(c) <- inv.(k).(c) /. d
    done;
    for i = 0 to m - 1 do
      if i <> k then begin
        let f = bmat.(i).(k) in
        if not (Float.equal f 0.0) then
          for c = 0 to m - 1 do
            bmat.(i).(c) <- bmat.(i).(c) -. (f *. bmat.(k).(c));
            inv.(i).(c) <- inv.(i).(c) -. (f *. inv.(k).(c))
          done
      end
    done
  done;
  for i = 0 to m - 1 do
    Array.blit inv.(i) 0 binv.(i) 0 m
  done

(* ---------- kernel interface ---------- *)

let factorize t ~col =
  t.factored <- false;
  (match t.impl with
  | D { binv; _ } -> dense_factorize binv t.m ~col
  | S lu -> ( try Lu.factorize lu ~col with Lu.Singular -> raise Singular));
  t.n_factor <- t.n_factor + 1;
  t.n_eta <- 0;
  t.last_fill <- (match t.impl with D _ -> t.m * t.m | S lu -> Lu.fill lu);
  t.factored <- true

let is_factored t = t.factored

(* v := B^-1 v (row space in, basis-position space out), in place. *)
let ftran t v =
  match t.impl with
  | S lu -> if t.m > 0 then Lu.ftran lu v
  | D { binv; scratch } ->
    let m = t.m in
    for i = 0 to m - 1 do
      let row = binv.(i) in
      let acc = ref 0.0 in
      for r = 0 to m - 1 do
        acc := !acc +. (row.(r) *. v.(r))
      done;
      scratch.(i) <- !acc
    done;
    Array.blit scratch 0 v 0 m

(* v := B^-T v (basis-position space in, row space out), in place. *)
let btran t v =
  match t.impl with
  | S lu -> if t.m > 0 then Lu.btran lu v
  | D { binv; scratch } ->
    let m = t.m in
    Array.fill scratch 0 m 0.0;
    for i = 0 to m - 1 do
      let cb = v.(i) in
      if not (Float.equal cb 0.0) then begin
        let row = binv.(i) in
        for k = 0 to m - 1 do
          scratch.(k) <- scratch.(k) +. (cb *. row.(k))
        done
      end
    done;
    Array.blit scratch 0 v 0 m

(* out := row r of B^-1, i.e. the btran image of the r-th unit vector
   — what the dual ratio test prices candidate columns against. *)
let btran_unit t r out =
  match t.impl with
  | D { binv; _ } -> Array.blit binv.(r) 0 out 0 t.m
  | S lu ->
    Array.fill out 0 t.m 0.0;
    out.(r) <- 1.0;
    Lu.btran lu out

(* Replace the basis column in position r; w = B^-1 A_entering. *)
let update t ~r ~w =
  (match t.impl with
  | S lu -> ( try Lu.update lu ~r ~w with Lu.Singular -> raise Singular)
  | D { binv; _ } ->
    let m = t.m in
    let wr = w.(r) in
    if abs_float wr < 1e-11 then raise Singular;
    let row_r = binv.(r) in
    for k = 0 to m - 1 do
      row_r.(k) <- row_r.(k) /. wr
    done;
    for i = 0 to m - 1 do
      if i <> r && not (Float.equal w.(i) 0.0) then begin
        let f = w.(i) in
        let row_i = binv.(i) in
        for k = 0 to m - 1 do
          row_i.(k) <- row_i.(k) -. (f *. row_r.(k))
        done
      end
    done);
  t.n_eta <- t.n_eta + 1;
  t.total_eta <- t.total_eta + 1

let note_drift_refresh t = t.n_drift <- t.n_drift + 1

(* ---------- accounting ---------- *)

let refactorizations t = t.n_factor
let eta_count t = t.n_eta
let eta_updates t = t.total_eta
let drift_refreshes t = t.n_drift

let fill_in t =
  match t.impl with
  | D _ -> t.last_fill
  | S lu -> t.last_fill + Lu.eta_nnz lu
