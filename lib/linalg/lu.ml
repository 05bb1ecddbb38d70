(* Sparse LU factorization for simplex bases and repeated linear
   solves.

   The factorization is left-looking over a column ordering chosen by
   increasing column count, with threshold row pivoting that prefers
   the sparsest eligible row — an approximate Markowitz rule: the
   column order bounds the fill a column can generate, the row choice
   trades a bounded loss of the largest pivot (relative threshold
   [row_threshold]) against row sparsity.

   P A Q = L U with L unit lower triangular. Factor storage:
   - [lcols.(k)]: the multipliers of step [k], indexed by ORIGINAL row
     (rows eliminated at later steps);
   - [ucols.(j)]: the U entries of step [j], indexed by STEP [k < j];
   - [p]/[pinv]: step <-> original row; [q]: step -> original column.

   Basis changes are absorbed as product-form eta spikes: replacing
   column [r] by [a] with [w = A^-1 a] multiplies the factored matrix
   on the right by an elementary matrix E (identity with column [r]
   set to [w]), so ftran appends E^-1 and btran prepends E^-T. Etas
   accumulate until the owner refactorizes. *)

module Invariant = Agingfp_util.Invariant

exception Singular

let pivot_tol = 1e-11
let row_threshold = 0.1

type eta = {
  e_pos : int;             (* column (position) replaced *)
  e_piv : float;           (* spike value at [e_pos] *)
  e_spike : Sparse.vec;    (* spike entries excluding [e_pos] *)
}

type t = {
  n : int;
  lcols : Sparse.vec array;
  ucols : Sparse.vec array;
  udiag : float array;
  p : int array;
  pinv : int array;
  q : int array;
  mutable etas : eta array;
  mutable neta : int;
  mutable eta_nnz : int;
  ws : Sparse.workspace;
  sol : float array;         (* step-space scratch for the solves *)
  mutable factored : bool;
  mutable nfactor : int;     (* factorizations performed *)
  mutable total_etas : int;  (* eta updates over the lifetime *)
}

let create n =
  if n < 0 then Invariant.invalid ~where:"Lu.create" "negative dimension";
  let cap = max n 1 in
  {
    n;
    lcols = Array.init cap (fun _ -> Sparse.create ());
    ucols = Array.init cap (fun _ -> Sparse.create ());
    udiag = Array.make cap 0.0;
    p = Array.make cap 0;
    pinv = Array.make cap (-1);
    q = Array.make cap 0;
    etas = [||];
    neta = 0;
    eta_nnz = 0;
    ws = Sparse.workspace n;
    sol = Array.make cap 0.0;
    factored = false;
    nfactor = 0;
    total_etas = 0;
  }

let dim t = t.n
let is_factored t = t.factored
let eta_count t = t.neta
let eta_nnz t = t.eta_nnz
let total_etas t = t.total_etas
let factor_count t = t.nfactor

let fill t =
  if not t.factored then 0
  else begin
    let acc = ref t.n in
    for k = 0 to t.n - 1 do
      acc := !acc + Sparse.length t.lcols.(k) + Sparse.length t.ucols.(k)
    done;
    !acc
  end

let factorize t ~col =
  (* Cleared until the elimination completes: a [Singular] raised
     midway leaves half-rebuilt factors that no solve may use. *)
  t.factored <- false;
  let n = t.n in
  let crows = Array.make (max n 1) [||] in
  let ccoefs = Array.make (max n 1) [||] in
  for j = 0 to n - 1 do
    let rows, coefs = col j in
    if Array.length rows <> Array.length coefs then
      Invariant.invalid ~where:"Lu.factorize" "ragged column";
    crows.(j) <- rows;
    ccoefs.(j) <- coefs
  done;
  (* Approximate Markowitz: eliminate thin columns first... *)
  let order = Array.init n (fun j -> j) in
  Array.sort
    (fun a b -> compare (Array.length crows.(a)) (Array.length crows.(b)))
    order;
  (* ...and, within a column, prefer pivot rows with few occupants. *)
  let rcount = Array.make (max n 1) 0 in
  for j = 0 to n - 1 do
    Array.iter (fun r -> rcount.(r) <- rcount.(r) + 1) crows.(j)
  done;
  Array.fill t.pinv 0 (max n 1) (-1);
  t.neta <- 0;
  t.eta_nnz <- 0;
  let ws = t.ws in
  let wx = ws.Sparse.x and stamp = ws.Sparse.stamp and touched = ws.Sparse.touched in
  for step = 0 to n - 1 do
    let j = order.(step) in
    t.q.(step) <- j;
    Sparse.reset ws;
    let rows = crows.(j) and coefs = ccoefs.(j) in
    for k = 0 to Array.length rows - 1 do
      let i = rows.(k) in
      Sparse.touch ws i;
      wx.(i) <- wx.(i) +. coefs.(k)
    done;
    let uc = t.ucols.(step) in
    Sparse.clear uc;
    (* Left-looking elimination: updates from step k can only create
       fill in rows pivoted after k, so a sequential scan in step
       order sees every live pivot-row entry exactly once. *)
    for k = 0 to step - 1 do
      let pk = t.p.(k) in
      if stamp.(pk) = ws.Sparse.gen then begin
        let v = wx.(pk) in
        if not (Float.equal v 0.0) then begin
          Sparse.ensure uc 1;
          uc.idx.(uc.nnz) <- k;
          uc.vals.(uc.nnz) <- v;
          uc.nnz <- uc.nnz + 1;
          let { Sparse.nnz; idx; vals } = t.lcols.(k) in
          for e = 0 to nnz - 1 do
            let i = idx.(e) in
            Sparse.touch ws i;
            wx.(i) <- wx.(i) +. (-.(v *. vals.(e)))
          done
        end
      end
    done;
    (* Threshold Markowitz pivot among the unpivoted rows. *)
    let vmax = ref 0.0 in
    for e = 0 to ws.Sparse.ntouched - 1 do
      let i = touched.(e) in
      if t.pinv.(i) < 0 then begin
        let a = abs_float wx.(i) in
        if a > !vmax then vmax := a
      end
    done;
    if !vmax < pivot_tol then raise Singular;
    let cutoff = row_threshold *. !vmax in
    let best = ref (-1) and best_count = ref max_int and best_mag = ref 0.0 in
    for e = 0 to ws.Sparse.ntouched - 1 do
      let i = touched.(e) in
      if t.pinv.(i) < 0 then begin
        let a = abs_float wx.(i) in
        if
          a >= cutoff
          && (rcount.(i) < !best_count
             || (rcount.(i) = !best_count && a > !best_mag))
        then begin
          best := i;
          best_count := rcount.(i);
          best_mag := a
        end
      end
    done;
    let r = !best in
    t.p.(step) <- r;
    t.pinv.(r) <- step;
    let d = wx.(r) in
    t.udiag.(step) <- d;
    let lc = t.lcols.(step) in
    Sparse.clear lc;
    let below i = i <> r && t.pinv.(i) < 0 && not (Float.equal wx.(i) 0.0) in
    let count = ref 0 in
    for e = 0 to ws.Sparse.ntouched - 1 do
      if below touched.(e) then incr count
    done;
    Sparse.ensure lc !count;
    for e = 0 to ws.Sparse.ntouched - 1 do
      let i = touched.(e) in
      if below i then begin
        lc.idx.(lc.nnz) <- i;
        lc.vals.(lc.nnz) <- wx.(i) /. d;
        lc.nnz <- lc.nnz + 1
      end
    done
  done;
  t.factored <- true;
  t.nfactor <- t.nfactor + 1

let check_ready t name v =
  if not t.factored then Invariant.invalid ~where:name "not factorized";
  if Array.length v < t.n then Invariant.invalid ~where:name "vector too short"

(* The solves and [update] run once or twice per simplex pivot. Their
   inner loops read the factor and eta arrays directly and keep their
   accumulators in local refs, so they allocate nothing; the
   floating-point operations and their order are those of the textbook
   column- and row-oriented triangular solves. *)

(* Solve A x = b in place: [b] enters in row space, leaves in column
   (position) space. *)
let ftran t b =
  check_ready t "Lu.ftran" b;
  let n = t.n in
  for k = 0 to n - 1 do
    let v = b.(t.p.(k)) in
    if not (Float.equal v 0.0) then begin
      let { Sparse.nnz; idx; vals } = t.lcols.(k) in
      for e = 0 to nnz - 1 do
        let i = idx.(e) in
        b.(i) <- b.(i) -. (v *. vals.(e))
      done
    end
  done;
  let z = t.sol in
  for j = n - 1 downto 0 do
    let zj = b.(t.p.(j)) /. t.udiag.(j) in
    z.(j) <- zj;
    if not (Float.equal zj 0.0) then begin
      let { Sparse.nnz; idx; vals } = t.ucols.(j) in
      for e = 0 to nnz - 1 do
        let pk = t.p.(idx.(e)) in
        b.(pk) <- b.(pk) -. (vals.(e) *. zj)
      done
    end
  done;
  for j = 0 to n - 1 do
    b.(t.q.(j)) <- z.(j)
  done;
  for e = 0 to t.neta - 1 do
    let eta = t.etas.(e) in
    let tv = b.(eta.e_pos) /. eta.e_piv in
    b.(eta.e_pos) <- tv;
    if not (Float.equal tv 0.0) then begin
      let { Sparse.nnz; idx; vals } = eta.e_spike in
      for k = 0 to nnz - 1 do
        let i = idx.(k) in
        b.(i) <- b.(i) -. (vals.(k) *. tv)
      done
    end
  done

(* Solve A^T y = c in place: [c] enters in column (position) space,
   leaves in row space. *)
let btran t c =
  check_ready t "Lu.btran" c;
  let n = t.n in
  for e = t.neta - 1 downto 0 do
    let eta = t.etas.(e) in
    let { Sparse.nnz; idx; vals } = eta.e_spike in
    let s = ref 0.0 in
    for k = 0 to nnz - 1 do
      s := !s +. (vals.(k) *. c.(idx.(k)))
    done;
    c.(eta.e_pos) <- (c.(eta.e_pos) -. !s) /. eta.e_piv
  done;
  let z = t.sol in
  for j = 0 to n - 1 do
    let { Sparse.nnz; idx; vals } = t.ucols.(j) in
    let s = ref c.(t.q.(j)) in
    for e = 0 to nnz - 1 do
      s := !s -. (vals.(e) *. z.(idx.(e)))
    done;
    z.(j) <- !s /. t.udiag.(j)
  done;
  for k = n - 1 downto 0 do
    let { Sparse.nnz; idx; vals } = t.lcols.(k) in
    let s = ref z.(k) in
    for e = 0 to nnz - 1 do
      s := !s -. (vals.(e) *. z.(t.pinv.(idx.(e))))
    done;
    z.(k) <- !s
  done;
  for k = 0 to n - 1 do
    c.(t.p.(k)) <- z.(k)
  done

let push_eta t eta =
  if t.neta >= Array.length t.etas then begin
    let cap = max 8 (2 * Array.length t.etas) in
    let etas = Array.make cap eta in
    Array.blit t.etas 0 etas 0 t.neta;
    t.etas <- etas
  end;
  t.etas.(t.neta) <- eta;
  t.neta <- t.neta + 1

(* Record the replacement of column [r] by a column whose ftran image
   is [w] (position space, dense). The spike is sized exactly: one
   counting pass, then one filling pass in ascending index order. *)
let update t ~r ~w =
  check_ready t "Lu.update" w;
  let piv = w.(r) in
  if abs_float piv < pivot_tol then raise Singular;
  let live i = i <> r && not (Float.equal w.(i) 0.0) in
  let count = ref 0 in
  for i = 0 to t.n - 1 do
    if live i then incr count
  done;
  let spike = Sparse.create ~cap:!count () in
  for i = 0 to t.n - 1 do
    if live i then begin
      spike.idx.(spike.nnz) <- i;
      spike.vals.(spike.nnz) <- w.(i);
      spike.nnz <- spike.nnz + 1
    end
  done;
  push_eta t { e_pos = r; e_piv = piv; e_spike = spike };
  t.eta_nnz <- t.eta_nnz + 1 + spike.nnz;
  t.total_etas <- t.total_etas + 1

(* ---------- dense-matrix convenience (thermal / Solve) ---------- *)

let of_matrix a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then Invariant.invalid ~where:"Lu.of_matrix" "matrix not square";
  let t = create n in
  factorize t ~col:(fun j ->
      let rows = ref [] and coefs = ref [] in
      for i = n - 1 downto 0 do
        let v = Matrix.get a i j in
        if not (Float.equal v 0.0) then begin
          rows := i :: !rows;
          coefs := v :: !coefs
        end
      done;
      (Array.of_list !rows, Array.of_list !coefs));
  t

let solve t b =
  if Array.length b <> t.n then Invariant.invalid ~where:"Lu.solve" "size mismatch";
  let x = Array.copy b in
  ftran t x;
  x

let solve_transposed t c =
  if Array.length c <> t.n then Invariant.invalid ~where:"Lu.solve_transposed" "size mismatch";
  let y = Array.copy c in
  btran t y;
  y
