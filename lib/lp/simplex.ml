module Invariant = Agingfp_util.Invariant
let src = Logs.Src.create "agingfp.simplex" ~doc:"LP simplex solver"

module Log = (val Logs.src_log src : Logs.LOG)
module Budget = Agingfp_util.Budget

type solution = { values : float array; objective : float; iterations : int }

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Deadline
  | Fault of string

type params = {
  max_iterations : int;
  feasibility_tol : float;
  optimality_tol : float;
  kernel : Basis.kind;
  drift_tol : float;
  budget : Budget.t;
}

let default_params =
  {
    max_iterations = 0;
    feasibility_tol = 1e-7;
    optimality_tol = 1e-7;
    kernel = Basis.Sparse_lu;
    drift_tol = 1e-6;
    budget = Budget.unlimited;
  }

(* Refactorization policy constants: [drift_check_interval] sets how
   often the residual ‖B x_B − b‖∞ is measured (each check is O(nnz)),
   [eta_cap] bounds the product-form eta file before a hygiene
   refactorization regardless of drift. *)
let drift_check_interval = 64
let eta_cap m = max 64 (m / 2)

let pp_status ppf = function
  | Optimal s -> Format.fprintf ppf "optimal (obj = %g, %d iters)" s.objective s.iterations
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Iteration_limit -> Format.pp_print_string ppf "iteration limit"
  | Deadline -> Format.pp_print_string ppf "deadline"
  | Fault msg -> Format.fprintf ppf "fault (%s)" msg

(* Persistent solver state. Columns 0..n-1 are the model's structural
   variables, n..n+m-1 the per-row slacks, and n+m.. the phase-1
   artificials (created only for rows whose slack cannot absorb the
   initial residual). The basis is held factorized behind the
   {!Basis} kernel (sparse LU with eta updates by default, explicit
   dense inverse as the selectable reference).

   The state outlives a single solve: [solve_state] optimizes cold
   (fresh slack/artificial basis), while [reoptimize] re-optimizes
   after bound or RHS changes from the current basis — the branch &
   bound hot path of the Eq. (3) MILPs.

   The structural entries are stored twice: column-major
   ([col_rows]/[col_coefs], each column sorted by row) for ftran and
   the basis factors, and as a row-major mirror ([row_start],
   [row_cols], [row_vals]) for the pricing products y·A, which then
   touch only the rows where y is nonzero. The per-iteration vectors
   live in the state, so an iteration allocates nothing of size m. *)

(* Cycle watch of [dual_restore] (see [repeats]): a snapshot of the
   step state and the columns bound-flipped since it was taken. *)
type probe = {
  snap_xb : float array;            (* m-sized: x_B at the snapshot *)
  mutable flipped : int array;      (* columns flipped since the snapshot, each once *)
  mutable flip_from : float array;  (* their values at the snapshot *)
  mutable n_flipped : int;
  mutable live : bool;              (* no pivot or refactorization since the snapshot *)
  mutable snap_refreshed : bool;
  mutable power : int;              (* steps the snapshot is kept before a retake *)
  mutable since : int;              (* steps taken since the snapshot *)
}

type state = {
  n : int;                   (* structural variable count *)
  m : int;                   (* row count *)
  max_cols : int;
  mutable ncols : int;       (* n + m + nart *)
  col_rows : int array array;
  col_coefs : float array array;
  row_start : int array;     (* m + 1: row i is [row_start.(i), row_start.(i + 1)) *)
  row_cols : int array;      (* structural column of each mirrored entry *)
  row_vals : float array;
  lb : float array;
  ub : float array;
  b : float array;
  bas : Basis.t;
  basis : int array;
  pos_in_basis : int array;
  x_b : float array;
  vals : float array;        (* value of each nonbasic column *)
  rhs_scratch : float array; (* m-sized: recompute_basics / drift checks *)
  w : float array;           (* m-sized: ftran image of the entering column *)
  y : float array;           (* m-sized: dual vector *)
  rho : float array;         (* m-sized: pivot row of B^-1 *)
  row_prod : float array;    (* n-sized: y·A or rho·A over the structurals *)
  probe : probe;
  n_artificial_base : int;   (* first artificial column index *)
  mutable nart : int;
  cost2 : float array;       (* sign-folded phase-2 cost *)
  mutable saved_cost : float array option; (* model cost while overridden *)
  obj : Expr.t;
  params : params;
  mutable budget : Budget.t; (* replaceable between solves on one state *)
  mutable n_warm : int;
  mutable n_cold : int;
  mutable n_fallback : int;
  mutable n_iters : int;
}

type state_stats = {
  warm_solves : int;
  cold_solves : int;
  warm_fallbacks : int;
  lp_iterations : int;
  refactorizations : int;
  eta_updates : int;
  fill_in : int;
  drift_refreshes : int;
}

let state_stats st =
  {
    warm_solves = st.n_warm;
    cold_solves = st.n_cold;
    warm_fallbacks = st.n_fallback;
    lp_iterations = st.n_iters;
    refactorizations = Basis.refactorizations st.bas;
    eta_updates = Basis.eta_updates st.bas;
    fill_in = Basis.fill_in st.bas;
    drift_refreshes = Basis.drift_refreshes st.bas;
  }

let col_dot st y j =
  let rows = st.col_rows.(j) and coefs = st.col_coefs.(j) in
  let acc = ref 0.0 in
  for k = 0 to Array.length rows - 1 do
    acc := !acc +. (y.(rows.(k)) *. coefs.(k))
  done;
  !acc

(* out.(j) := v·A_j for every structural column j, accumulated through
   the row-major mirror in ascending row order over the rows where v
   is nonzero. Each column is sorted by row, so out.(j) receives the
   same products in the same order as [col_dot st v j]; the skipped
   terms are ±0 products, which leave unchanged a sum that starts at
   +0 and so can never be -0. The two agree bit for bit, which keeps
   every pricing decision, and so every pivot, identical. *)
let row_product st v out =
  Array.fill out 0 st.n 0.0;
  let cols = st.row_cols and coefs = st.row_vals in
  for i = 0 to st.m - 1 do
    let vi = v.(i) in
    if not (Float.equal vi 0.0) then
      for k = st.row_start.(i) to st.row_start.(i + 1) - 1 do
        let j = cols.(k) in
        out.(j) <- out.(j) +. (vi *. coefs.(k))
      done
  done

(* v·A_j for any column, given [row_product st v prod]: slack and
   artificial columns hold a single entry and are not mirrored. *)
let[@inline] priced st prod v j = if j < st.n then prod.(j) else col_dot st v j

(* w = B^-1 * A_e: scatter the sparse column, solve through the
   kernel. *)
let ftran st j w =
  Array.fill w 0 st.m 0.0;
  let rows = st.col_rows.(j) and coefs = st.col_coefs.(j) in
  for k = 0 to Array.length rows - 1 do
    w.(rows.(k)) <- w.(rows.(k)) +. coefs.(k)
  done;
  Basis.ftran st.bas w

(* Dual vector y = c_B^T B^-1, i.e. B^T y = c_B: load the basic costs
   by position, btran through the kernel. *)
let dual_vector st cost y =
  for i = 0 to st.m - 1 do
    y.(i) <- cost.(st.basis.(i))
  done;
  Basis.btran st.bas y

exception Singular_basis

let factorize_basis st =
  try
    Basis.factorize st.bas ~col:(fun i ->
        let j = st.basis.(i) in
        (st.col_rows.(j), st.col_coefs.(j)))
  with Basis.Singular -> raise Singular_basis

(* rhs := b - sum over nonbasic columns of A_j v_j. *)
let effective_rhs st rhs =
  Array.blit st.b 0 rhs 0 st.m;
  for j = 0 to st.ncols - 1 do
    if st.pos_in_basis.(j) < 0 && not (Float.equal st.vals.(j) 0.0) then begin
      let rows = st.col_rows.(j) and coefs = st.col_coefs.(j) in
      for k = 0 to Array.length rows - 1 do
        rhs.(rows.(k)) <- rhs.(rows.(k)) -. (coefs.(k) *. st.vals.(j))
      done
    end
  done

(* x_B = B^-1 (b - sum over nonbasic columns of A_j v_j); refreshes the
   basic values from the nonbasic assignment after bound/RHS edits. *)
let recompute_basics st =
  let rhs = st.rhs_scratch in
  effective_rhs st rhs;
  Basis.ftran st.bas rhs;
  Array.blit rhs 0 st.x_b 0 st.m

(* Measured factorization drift ‖B x_B − (b − N x_N)‖∞: how far the
   basic values produced through the (eta-extended) factors are from
   satisfying the rows they are supposed to satisfy. O(nnz of the
   live columns) — cheap enough to poll at a fixed cadence, so the
   kernel is refreshed when the error is real rather than on a blind
   iteration count. *)
let drift st =
  let m = st.m in
  let r = st.rhs_scratch in
  effective_rhs st r;
  for i = 0 to m - 1 do
    let x = st.x_b.(i) in
    if not (Float.equal x 0.0) then begin
      let j = st.basis.(i) in
      let rows = st.col_rows.(j) and coefs = st.col_coefs.(j) in
      for k = 0 to Array.length rows - 1 do
        r.(rows.(k)) <- r.(rows.(k)) -. (coefs.(k) *. x)
      done
    end
  done;
  let worst = ref 0.0 in
  for i = 0 to m - 1 do
    let a = abs_float r.(i) in
    if a > !worst then worst := a
  done;
  !worst

let refactorize ?(drift_triggered = false) st =
  factorize_basis st;
  if drift_triggered then Basis.note_drift_refresh st.bas;
  recompute_basics st

(* Refactorization policy, polled once per pivot: refresh when the
   eta file outgrows its cap (hygiene), or — at the check cadence —
   when the measured residual drift exceeds the tolerance. *)
let maybe_refactorize st iter =
  if Basis.eta_count st.bas >= eta_cap st.m then refactorize st
  else if
    iter > 0
    && iter mod drift_check_interval = 0
    && drift st > st.params.drift_tol
  then refactorize ~drift_triggered:true st

(* Swap column [e] (moving in direction [dir] by step [t], with
   w = B^-1 A_e precomputed) into basis row [r]; the leaving variable
   becomes nonbasic at [leave_val]. The kernel absorbs the column
   replacement as a product-form/eta update. *)
let apply_pivot st r e dir t leave_val w =
  let m = st.m in
  let lv = st.basis.(r) in
  st.vals.(lv) <- leave_val;
  st.pos_in_basis.(lv) <- -1;
  for i = 0 to m - 1 do
    if i <> r then st.x_b.(i) <- st.x_b.(i) -. (t *. dir *. w.(i))
  done;
  st.x_b.(r) <- st.vals.(e) +. (dir *. t);
  st.basis.(r) <- e;
  st.pos_in_basis.(e) <- r;
  try Basis.update st.bas ~r ~w with Basis.Singular -> raise Singular_basis

(* Distance column [j] can travel in direction [dir] before hitting its
   own bound, measured from vals.(j) — NOT ub - lb: after
   [set_var_bounds] a clamped nonbasic may rest strictly between its
   bounds, and stepping by the full range would desynchronize x_B from
   the nonbasic assignment (or push [j] past its bound). *)
let travel_limit st j dir =
  if dir > 0.0 then
    if st.ub.(j) < infinity then max 0.0 (st.ub.(j) -. st.vals.(j)) else infinity
  else if st.lb.(j) > neg_infinity then max 0.0 (st.vals.(j) -. st.lb.(j))
  else infinity

type phase_result =
  | Phase_optimal of int
  | Phase_unbounded
  | Phase_iter_limit
  | Phase_deadline

(* Optimize the given cost vector from the current basis. *)
let optimize st cost max_iter =
  let m = st.m in
  let w = st.w and y = st.y and ya = st.row_prod in
  let opt_tol = st.params.optimality_tol in
  let piv_tol = 1e-9 in
  let degen = ref 0 in
  let bland = ref false in
  let rec loop iter =
    if iter >= max_iter then Phase_iter_limit
    else if Budget.expired st.budget then Phase_deadline
    else if
      Faults.active ()
      && (Faults.checkpoint ~where:"Simplex.optimize";
          Faults.spurious_iteration_limit ())
    then Phase_iter_limit
    else begin
      maybe_refactorize st iter;
      dual_vector st cost y;
      row_product st y ya;
      (* Pricing: find entering column and its movement direction. *)
      let best = ref (-1) in
      let best_dir = ref 1.0 in
      let best_score = ref opt_tol in
      (try
         for j = 0 to st.ncols - 1 do
           if st.pos_in_basis.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
             let d = cost.(j) -. priced st ya y j in
             let v = st.vals.(j) in
             let at_lb = st.lb.(j) > neg_infinity && v <= st.lb.(j) +. 1e-12 in
             let at_ub = st.ub.(j) < infinity && v >= st.ub.(j) -. 1e-12 in
             let candidate_dir =
               if at_lb && at_ub then None
               else if at_lb then (if d < -.opt_tol then Some 1.0 else None)
               else if at_ub then (if d > opt_tol then Some (-1.0) else None)
               else if abs_float d > opt_tol then Some (if d < 0.0 then 1.0 else -1.0)
               else None
             in
             match candidate_dir with
             | None -> ()
             | Some dir ->
               if !bland then begin
                 best := j;
                 best_dir := dir;
                 raise Exit
               end
               else if abs_float d > !best_score then begin
                 best := j;
                 best_dir := dir;
                 best_score := abs_float d
               end
           end
         done
       with Exit -> ());
      if !best < 0 then Phase_optimal iter
      else begin
        let e = !best and dir = !best_dir in
        ftran st e w;
        (* Ratio test over the basic variables, plus the entering
           variable's own travel range to the bound it moves toward
           (a "bound flip"). *)
        let t_limit = travel_limit st e dir in
        let t_best = ref t_limit in
        let leaving = ref (-1) in
        let leaving_w = ref 0.0 in
        for i = 0 to m - 1 do
          let delta = dir *. w.(i) in
          if delta > piv_tol then begin
            let lo = st.lb.(st.basis.(i)) in
            if lo > neg_infinity then begin
              let t = (st.x_b.(i) -. lo) /. delta in
              let t = if t < 0.0 then 0.0 else t in
              if t < !t_best -. 1e-12 || (t <= !t_best && abs_float delta > abs_float !leaving_w) then begin
                t_best := t;
                leaving := i;
                leaving_w := delta
              end
            end
          end
          else if delta < -.piv_tol then begin
            let hi = st.ub.(st.basis.(i)) in
            if hi < infinity then begin
              let t = (st.x_b.(i) -. hi) /. delta in
              let t = if t < 0.0 then 0.0 else t in
              if t < !t_best -. 1e-12 || (t <= !t_best && abs_float delta > abs_float !leaving_w) then begin
                t_best := t;
                leaving := i;
                leaving_w := delta
              end
            end
          end
        done;
        if Float.equal !t_best infinity then Phase_unbounded
        else begin
          (* Fault injection: a perturbed step length models the
             numerical corruption of a near-singular pivot. *)
          let t = !t_best *. (if Faults.active () then Faults.step_scale () else 1.0) in
          if t <= st.params.feasibility_tol then incr degen else degen := 0;
          if !degen > 200 then bland := true;
          if !degen = 0 then bland := false;
          st.n_iters <- st.n_iters + 1;
          if !leaving < 0 then begin
            (* Bound flip: the entering variable travels to the bound
               in its movement direction without any basis change
               (t = travel_limit, so snapping vals is exact). *)
            st.vals.(e) <- (if dir > 0.0 then st.ub.(e) else st.lb.(e));
            for i = 0 to m - 1 do
              st.x_b.(i) <- st.x_b.(i) -. (t *. dir *. w.(i))
            done;
            loop (iter + 1)
          end
          else begin
            let r = !leaving in
            let leave_val =
              if dir *. w.(r) > 0.0 then st.lb.(st.basis.(r)) else st.ub.(st.basis.(r))
            in
            apply_pivot st r e dir t leave_val w;
            loop (iter + 1)
          end
        end
      end
    end
  in
  loop 0

let nearest_bound lb ub = if lb > neg_infinity then lb else if ub < infinity then ub else 0.0

(* ---------- assembly and cold solve ---------- *)

let assemble ?(params = default_params) model =
  let n = Model.num_vars model in
  let m = Model.num_constraints model in
  let dir, obj = Model.objective model in
  let sign = match dir with Model.Minimize -> 1.0 | Model.Maximize -> -1.0 in
  let acc_rows = Array.make (max n 1) [] in
  let acc_coefs = Array.make (max n 1) [] in
  let b = Array.make (max m 1) 0.0 in
  (* Column layout: [0, n) structurals, [n, n + m) one slack per row,
     then m artificial slots. *)
  let max_cols = n + m + m in
  let col_rows = Array.make (max max_cols 1) [||] in
  let col_coefs = Array.make (max max_cols 1) [||] in
  let lb = Array.make (max max_cols 1) 0.0 in
  let ub = Array.make (max max_cols 1) 0.0 in
  Model.iter_constraints model (fun i lhs rel rhs ->
      b.(i) <- rhs;
      (match rel with
      | Model.Le ->
        lb.(n + i) <- 0.0;
        ub.(n + i) <- infinity
      | Model.Ge ->
        lb.(n + i) <- neg_infinity;
        ub.(n + i) <- 0.0
      | Model.Eq ->
        lb.(n + i) <- 0.0;
        ub.(n + i) <- 0.0);
      List.iter
        (fun (v, c) ->
          acc_rows.(v) <- i :: acc_rows.(v);
          acc_coefs.(v) <- c :: acc_coefs.(v))
        (Expr.terms lhs));
  for v = 0 to n - 1 do
    col_rows.(v) <- Array.of_list (List.rev acc_rows.(v));
    col_coefs.(v) <- Array.of_list (List.rev acc_coefs.(v));
    lb.(v) <- Model.var_lb model v;
    ub.(v) <- Model.var_ub model v
  done;
  for i = 0 to m - 1 do
    col_rows.(n + i) <- [| i |];
    col_coefs.(n + i) <- [| 1.0 |]
  done;
  (* Row-major mirror of the structural entries: a counting-sort
     transpose of the column store, so each row lists its columns in
     ascending order. *)
  let row_start = Array.make (m + 1) 0 in
  for v = 0 to n - 1 do
    Array.iter (fun i -> row_start.(i + 1) <- row_start.(i + 1) + 1) col_rows.(v)
  done;
  for i = 1 to m do
    row_start.(i) <- row_start.(i) + row_start.(i - 1)
  done;
  let nnz = row_start.(m) in
  let row_cols = Array.make (max nnz 1) 0 and row_vals = Array.make (max nnz 1) 0.0 in
  let next = Array.sub row_start 0 (max m 1) in
  for v = 0 to n - 1 do
    let rows = col_rows.(v) and coefs = col_coefs.(v) in
    for k = 0 to Array.length rows - 1 do
      let i = rows.(k) in
      row_cols.(next.(i)) <- v;
      row_vals.(next.(i)) <- coefs.(k);
      next.(i) <- next.(i) + 1
    done
  done;
  let cost2 = Array.make (max max_cols 1) 0.0 in
  for v = 0 to n - 1 do
    cost2.(v) <- sign *. Expr.coef obj v
  done;
  let params =
    if params.max_iterations > 0 then params
    else { params with max_iterations = (50 * (m + n)) + 5000 }
  in
  {
    n;
    m;
    max_cols;
    ncols = n + m;
    col_rows;
    col_coefs;
    row_start;
    row_cols;
    row_vals;
    lb;
    ub;
    b;
    bas = Basis.create params.kernel m;
    basis = Array.make (max m 1) (-1);
    pos_in_basis = Array.make (max max_cols 1) (-1);
    x_b = Array.make (max m 1) 0.0;
    vals = Array.make (max max_cols 1) 0.0;
    rhs_scratch = Array.make (max m 1) 0.0;
    w = Array.make (max m 1) 0.0;
    y = Array.make (max m 1) 0.0;
    rho = Array.make (max m 1) 0.0;
    row_prod = Array.make (max n 1) 0.0;
    probe =
      {
        snap_xb = Array.make (max m 1) 0.0;
        flipped = Array.make 16 0;
        flip_from = Array.make 16 0.0;
        n_flipped = 0;
        live = false;
        snap_refreshed = false;
        power = 1;
        since = 0;
      };
    n_artificial_base = n + m;
    nart = 0;
    cost2;
    saved_cost = None;
    obj;
    params;
    budget = params.budget;
    n_warm = 0;
    n_cold = 0;
    n_fallback = 0;
    n_iters = 0;
  }

(* Rebuild the initial slack/artificial basis from the current bounds
   and RHS: structurals at their nearest bound, slacks absorbing the
   row residuals where their bounds allow, artificials elsewhere. *)
let reset st =
  let n = st.n and m = st.m in
  for v = 0 to n - 1 do
    st.vals.(v) <- nearest_bound st.lb.(v) st.ub.(v)
  done;
  for i = 0 to m - 1 do
    st.vals.(n + i) <- 0.0
  done;
  for j = st.n_artificial_base to st.max_cols - 1 do
    st.lb.(j) <- 0.0;
    st.ub.(j) <- 0.0;
    st.vals.(j) <- 0.0
  done;
  Array.fill st.pos_in_basis 0 st.max_cols (-1);
  let resid = Array.copy st.b in
  for v = 0 to n - 1 do
    if not (Float.equal st.vals.(v) 0.0) then begin
      let rows = st.col_rows.(v) and coefs = st.col_coefs.(v) in
      for k = 0 to Array.length rows - 1 do
        resid.(rows.(k)) <- resid.(rows.(k)) -. (coefs.(k) *. st.vals.(v))
      done
    end
  done;
  st.nart <- 0;
  for i = 0 to m - 1 do
    let slack_lb = st.lb.(n + i) and slack_ub = st.ub.(n + i) in
    if resid.(i) >= slack_lb -. 1e-12 && resid.(i) <= slack_ub +. 1e-12 then begin
      st.basis.(i) <- n + i;
      st.pos_in_basis.(n + i) <- i;
      st.x_b.(i) <- resid.(i)
    end
    else begin
      let sigma = if resid.(i) >= 0.0 then 1.0 else -1.0 in
      let j = st.n_artificial_base + st.nart in
      st.nart <- st.nart + 1;
      st.col_rows.(j) <- [| i |];
      st.col_coefs.(j) <- [| sigma |];
      st.lb.(j) <- 0.0;
      st.ub.(j) <- infinity;
      st.basis.(i) <- j;
      st.pos_in_basis.(j) <- i;
      st.x_b.(i) <- abs_float resid.(i)
    end
  done;
  st.ncols <- st.n_artificial_base + st.nart;
  (* The initial slack/artificial basis is a ±1 diagonal; factorizing
     it through the kernel is O(m) and cannot be singular. *)
  factorize_basis st

let extract_solution st ~iterations =
  let values = Array.make st.n 0.0 in
  for v = 0 to st.n - 1 do
    values.(v) <-
      (let p = st.pos_in_basis.(v) in
       if p >= 0 then st.x_b.(p) else st.vals.(v))
  done;
  { values; objective = Expr.eval (fun v -> values.(v)) st.obj; iterations }

(* Pin every artificial to [0,0]. Must hold on EVERY exit from
   [solve_state] — even infeasible ones — because a later [reoptimize]
   recomputes basic values from the same basis: an artificial left
   basic with its phase-1 range [0, inf) would silently absorb a row
   residual and certify an infeasible point as optimal. *)
let lock_artificials st =
  for j = st.n_artificial_base to st.ncols - 1 do
    st.ub.(j) <- 0.0;
    if st.pos_in_basis.(j) < 0 then st.vals.(j) <- 0.0
  done

let solve_state st =
  st.n_cold <- st.n_cold + 1;
  let iters0 = st.n_iters in
  let m = st.m in
  let run () =
    reset st;
    (* Phase 1: drive the artificials to zero. *)
    let art_total () =
      let acc = ref 0.0 in
      for i = 0 to m - 1 do
        if st.basis.(i) >= st.n_artificial_base then acc := !acc +. st.x_b.(i)
      done;
      for j = st.n_artificial_base to st.ncols - 1 do
        if st.pos_in_basis.(j) < 0 then acc := !acc +. st.vals.(j)
      done;
      !acc
    in
    let phase1_needed = st.nart > 0 && art_total () > st.params.feasibility_tol in
    let phase1 =
      if not phase1_needed then Phase_optimal 0
      else begin
        let cost1 = Array.make (max st.max_cols 1) 0.0 in
        for j = st.n_artificial_base to st.ncols - 1 do
          cost1.(j) <- 1.0
        done;
        optimize st cost1 st.params.max_iterations
      end
    in
    match phase1 with
    | Phase_iter_limit -> Iteration_limit
    | Phase_deadline -> Deadline
    | Phase_unbounded ->
      (* Phase 1 is bounded below by zero; reaching here indicates
         numerical failure. Report infeasible conservatively. *)
      Log.warn (fun k -> k "phase 1 reported unbounded: numerical trouble");
      Infeasible
    | Phase_optimal it1 ->
      if st.nart > 0 && art_total () > st.params.feasibility_tol *. 100.0 then Infeasible
      else begin
        (* Lock artificials out of the problem before phase 2. *)
        lock_artificials st;
        (* Grant phase 2 its own iteration floor: a long phase 1 must
           not leave a zero/negative budget that instantly reports
           Iteration_limit. *)
        let phase2_budget =
          max (st.params.max_iterations - it1) (100 + (st.params.max_iterations / 4))
        in
        match optimize st st.cost2 phase2_budget with
        | Phase_iter_limit -> Iteration_limit
        | Phase_deadline -> Deadline
        | Phase_unbounded -> Unbounded
        | Phase_optimal _ ->
          Optimal (extract_solution st ~iterations:(st.n_iters - iters0))
      end
  in
  let result =
    try run () with Singular_basis ->
      Log.warn (fun k -> k "singular basis encountered");
      Infeasible
  in
  lock_artificials st;
  (* Fault injection: with the injector armed, an optimal exit may be
     forged into an infeasibility verdict — the lie a broken phase 1
     would tell. *)
  match result with
  | Optimal _ when Faults.active () && Faults.forge_infeasible () -> Infeasible
  | r -> r

(* ---------- bound / RHS edits and warm re-optimization ---------- *)

let set_var_bounds st v ~lb ~ub =
  if v < 0 || v >= st.n then Invariant.invalid ~where:"Simplex.set_var_bounds" "not a structural var";
  if lb > ub then Invariant.invalid ~where:"Simplex.set_var_bounds" "lb > ub";
  st.lb.(v) <- lb;
  st.ub.(v) <- ub;
  if st.pos_in_basis.(v) < 0 then begin
    let x = st.vals.(v) in
    st.vals.(v) <- (if x < lb then lb else if x > ub then ub else x)
  end

let set_rhs st i rhs =
  if i < 0 || i >= st.m then Invariant.invalid ~where:"Simplex.set_rhs" "bad row";
  st.b.(i) <- rhs

let set_budget st budget = st.budget <- budget

(* ---------- objective override (feasibility pump) ---------- *)

(* Replace the minimized cost vector with an arbitrary linear form
   over the structural variables, saving the model cost for
   [reset_cost]. Solutions extracted while the override is active
   still report the MODEL objective (the pump wants the point, not
   the distance value). *)
let set_cost st terms =
  (match st.saved_cost with
  | Some _ -> ()
  | None -> st.saved_cost <- Some (Array.copy st.cost2));
  Array.fill st.cost2 0 st.max_cols 0.0;
  List.iter
    (fun (v, c) ->
      if v < 0 || v >= st.n then
        Invariant.invalid ~where:"Simplex.set_cost" "term on non-structural column %d" v;
      st.cost2.(v) <- c)
    terms

let reset_cost st =
  match st.saved_cost with
  | None -> ()
  | Some c ->
    Array.blit c 0 st.cost2 0 st.max_cols;
    st.saved_cost <- None

(* ---------- introspection ---------- *)

let column_bounds st j =
  if j < 0 || j >= st.max_cols then Invariant.invalid ~where:"Simplex.column_bounds" "bad column";
  (st.lb.(j), st.ub.(j))

(* The row-major mirror must hold exactly the column store's
   structural entries, with every column sorted by row; then, against
   live factors, the mirrored products must reproduce the column-wise
   ones bit for bit (±0 equal) for the reduced costs and for every
   pivot row of B⁻¹A — the contract that keeps the pivots identical. *)
let check_row_mirror st =
  let where = "Simplex.check_row_mirror" in
  let next = Array.sub st.row_start 0 (st.m + 1) in
  for j = 0 to st.n - 1 do
    let rows = st.col_rows.(j) and coefs = st.col_coefs.(j) in
    for k = 0 to Array.length rows - 1 do
      let i = rows.(k) in
      if i < 0 || i >= st.m || (k > 0 && rows.(k - 1) >= i) then
        Invariant.fail ~where "column %d is not sorted over the live rows" j;
      let e = next.(i) in
      if
        e >= st.row_start.(i + 1)
        || st.row_cols.(e) <> j
        || not (Float.equal st.row_vals.(e) coefs.(k))
      then Invariant.fail ~where "row %d: mirror differs from column %d" i j;
      next.(i) <- e + 1
    done
  done;
  for i = 0 to st.m - 1 do
    if next.(i) <> st.row_start.(i + 1) then
      Invariant.fail ~where "row %d: mirror holds entries the columns lack" i
  done;
  if Basis.is_factored st.bas then begin
    let v = Array.make (max st.m 1) 0.0 and prod = Array.make (max st.n 1) 0.0 in
    let agree what reduce =
      row_product st v prod;
      for j = 0 to st.n - 1 do
        let mirrored = reduce j prod.(j) and columnwise = reduce j (col_dot st v j) in
        if not (Float.equal mirrored columnwise) then
          Invariant.fail ~where "%s, column %d: mirror %h, columns %h" what j mirrored
            columnwise
      done
    in
    dual_vector st st.cost2 v;
    agree "reduced cost" (fun j yj -> st.cost2.(j) -. yj);
    for r = 0 to st.m - 1 do
      Basis.btran_unit st.bas r v;
      agree (Printf.sprintf "pivot row %d" r) (fun _ a -> a)
    done
  end

type dual_result = Dual_feasible | Dual_infeasible | Dual_stall | Dual_deadline

(* ---------- cycle exit of the dual restore ---------- *)

(* Between two pivots the basis and its factors are fixed, so a
   dual-restore step is a function of x_B, the nonbasic values and the
   [refreshed] flag alone. Once that state repeats, the loop repeats
   until its iteration cap and ends in [Dual_stall]; stopping at the
   repeat gives the same verdict, and so the same cold restart, without
   the loop. The comparison is bit for bit: any difference, even of a
   zero's sign, counts as a new state. Only the columns bound-flipped
   since the snapshot can differ from it among the nonbasic values, so
   those are logged once each with their value at the snapshot; a
   pivot or a refactorization drops the snapshot. *)

let[@inline] same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rec flips_match st p k =
  k >= p.n_flipped
  || (same_bits st.vals.(p.flipped.(k)) p.flip_from.(k) && flips_match st p (k + 1))

let rec basics_match st p i =
  i >= st.m || (same_bits st.x_b.(i) p.snap_xb.(i) && basics_match st p (i + 1))

let take_snapshot st refreshed power =
  let p = st.probe in
  Array.blit st.x_b 0 p.snap_xb 0 st.m;
  p.n_flipped <- 0;
  p.snap_refreshed <- refreshed;
  p.power <- power;
  p.since <- 0;
  p.live <- true

(* Called once before each step: true when the state equals the
   snapshot. Otherwise the step is counted, and the snapshot is taken
   (none held) or retaken (held for [power] steps, which then
   doubles). A cycle of length λ entered after μ steps is caught
   within O(μ + λ) steps. *)
let repeats st refreshed =
  let p = st.probe in
  if p.live && Bool.equal refreshed p.snap_refreshed && flips_match st p 0 && basics_match st p 0
  then true
  else begin
    if not p.live then take_snapshot st refreshed 1
    else if p.since = p.power then take_snapshot st refreshed (2 * p.power);
    p.since <- p.since + 1;
    false
  end

let rec logged p e k = k < p.n_flipped && (p.flipped.(k) = e || logged p e (k + 1))

(* Log column [e]'s value before its first bound flip since the
   snapshot. The linear search costs no more than the step's pricing
   pass over the columns; the log doubles when full, so it allocates
   only while it grows to the longest run's width. *)
let note_flip st e =
  let p = st.probe in
  if not (logged p e 0) then begin
    let k = p.n_flipped in
    if k = Array.length p.flipped then begin
      let flipped = Array.make (2 * k) 0 and flip_from = Array.make (2 * k) 0.0 in
      Array.blit p.flipped 0 flipped 0 k;
      Array.blit p.flip_from 0 flip_from 0 k;
      p.flipped <- flipped;
      p.flip_from <- flip_from
    end;
    p.flipped.(k) <- e;
    p.flip_from.(k) <- st.vals.(e);
    p.n_flipped <- k + 1
  end

(* Dual-simplex-style recovery: restore primal feasibility of the
   basic values from the current basis, picking leaving rows by worst
   bound violation and entering columns by the dual ratio test. A
   certified "no eligible entering column" (or a too-small pivot) is
   only trusted against clean factors: if the kernel carries eta
   updates or measurable residual drift, it is refactorized once and
   the verdict re-derived — a fresh drift-free factorization passes
   straight through instead of paying the old unconditional dense
   refresh. A repeated state between pivots ends the run in
   [Dual_stall] at once (see [repeats]). *)
let dual_restore st =
  let m = st.m in
  if m = 0 then Dual_feasible
  else begin
    st.probe.live <- false;
    let feas_tol = st.params.feasibility_tol in
    let piv_tol = 1e-9 in
    let w = st.w and y = st.y and rho = st.rho and alpha_row = st.row_prod in
    let max_iter = (4 * (m + 1)) + 200 in
    let rec loop iter refreshed =
      (* Eta-file hygiene before the violation scan: refreshing here
         also re-derives x_B, so the leaving-row choice below is made
         against the clean factors. *)
      if Basis.eta_count st.bas >= eta_cap m then begin
        refactorize st;
        st.probe.live <- false
      end;
      let r = ref (-1) and worst = ref feas_tol in
      for i = 0 to m - 1 do
        let j = st.basis.(i) in
        let v =
          if st.x_b.(i) < st.lb.(j) then st.lb.(j) -. st.x_b.(i)
          else if st.x_b.(i) > st.ub.(j) then st.x_b.(i) -. st.ub.(j)
          else 0.0
        in
        if v > !worst then begin
          r := i;
          worst := v
        end
      done;
      if !r < 0 then Dual_feasible
      else if iter >= max_iter then Dual_stall
      else if Budget.expired st.budget then Dual_deadline
      else if repeats st refreshed then Dual_stall
      else begin
        if Faults.active () then Faults.checkpoint ~where:"Simplex.dual_restore";
        let r = !r in
        let lv = st.basis.(r) in
        let below = st.x_b.(r) < st.lb.(lv) in
        let target = if below then st.lb.(lv) else st.ub.(lv) in
        dual_vector st st.cost2 y;
        Basis.btran_unit st.bas r rho;
        row_product st rho alpha_row;
        let best = ref (-1) in
        let best_ratio = ref infinity in
        let best_alpha = ref 0.0 in
        let best_dir = ref 1.0 in
        for j = 0 to st.ncols - 1 do
          if st.pos_in_basis.(j) < 0 && st.lb.(j) < st.ub.(j) then begin
            let alpha = priced st alpha_row rho j in
            if abs_float alpha > piv_tol then begin
              let v = st.vals.(j) in
              let at_lb = st.lb.(j) > neg_infinity && v <= st.lb.(j) +. 1e-12 in
              let at_ub = st.ub.(j) < infinity && v >= st.ub.(j) -. 1e-12 in
              (* x_b(r) moves by -(dir * alpha) per unit step of j. *)
              let dir =
                if at_lb && at_ub then 0.0
                else if at_lb then (if (if below then -.alpha else alpha) > 0.0 then 1.0 else 0.0)
                else if at_ub then (if (if below then alpha else -.alpha) > 0.0 then -1.0 else 0.0)
                else if below then (if alpha < 0.0 then 1.0 else -1.0)
                else if alpha > 0.0 then 1.0
                else -1.0
              in
              if not (Float.equal dir 0.0) then begin
                let d = st.cost2.(j) -. col_dot st y j in
                let ratio = abs_float d /. abs_float alpha in
                if
                  ratio < !best_ratio -. 1e-12
                  || (ratio <= !best_ratio +. 1e-12 && abs_float alpha > abs_float !best_alpha)
                then begin
                  best := j;
                  best_ratio := ratio;
                  best_alpha := alpha;
                  best_dir := dir
                end
              end
            end
          end
        done;
        (* Residual-drift gate on suspicious verdicts: accept them
           outright from clean factors (no etas, measured drift within
           tolerance); otherwise refactorize once — counted as a drift
           refresh when drift was the reason — and re-derive. *)
        let confirm verdict k =
          if refreshed then verdict
          else begin
            let drifted = drift st > st.params.drift_tol in
            if (not drifted) && Basis.eta_count st.bas = 0 then verdict
            else begin
              refactorize ~drift_triggered:drifted st;
              st.probe.live <- false;
              k ()
            end
          end
        in
        if !best < 0 then confirm Dual_infeasible (fun () -> loop iter true)
        else begin
          let e = !best and dir = !best_dir in
          ftran st e w;
          if abs_float w.(r) < piv_tol then
            confirm Dual_stall (fun () -> loop iter true)
          else begin
            let t = (st.x_b.(r) -. target) /. (dir *. w.(r)) in
            let t = if t < 0.0 then 0.0 else t in
            let range = travel_limit st e dir in
            st.n_iters <- st.n_iters + 1;
            if range < t then begin
              (* The entering variable hits the bound in its movement
                 direction before the leaving row reaches feasibility:
                 bound flip (range = travel_limit, snap is exact). *)
              note_flip st e;
              st.vals.(e) <- (if dir > 0.0 then st.ub.(e) else st.lb.(e));
              for i = 0 to m - 1 do
                st.x_b.(i) <- st.x_b.(i) -. (range *. dir *. w.(i))
              done;
              loop (iter + 1) refreshed
            end
            else begin
              apply_pivot st r e dir t target w;
              st.probe.live <- false;
              loop (iter + 1) refreshed
            end
          end
        end
      end
    in
    loop 0 false
  end

let reoptimize st =
  if st.n_warm = 0 && st.n_cold = 0 then solve_state st
  else begin
    let iters0 = st.n_iters in
    let attempt () =
      (* A singular refactorization during the previous solve left no
         usable factors: nothing warm survives, restart cold. *)
      if not (Basis.is_factored st.bas) then raise Singular_basis;
      recompute_basics st;
      match dual_restore st with
      | Dual_infeasible -> Some Infeasible
      | Dual_stall -> None
      | Dual_deadline -> Some Deadline
      | Dual_feasible -> (
        match optimize st st.cost2 st.params.max_iterations with
        | Phase_iter_limit -> Some Iteration_limit
        | Phase_deadline -> Some Deadline
        | Phase_unbounded -> Some Unbounded
        | Phase_optimal _ ->
          Some (Optimal (extract_solution st ~iterations:(st.n_iters - iters0))))
    in
    match (try attempt () with Singular_basis -> None) with
    | Some status ->
      st.n_warm <- st.n_warm + 1;
      (match status with
      | Optimal _ when Faults.active () && Faults.forge_infeasible () -> Infeasible
      | s -> s)
    | None ->
      (* A stalled dual restore (most often a bound-flip cycle) or a
         singular basis along the warm path: fall back to a cold solve
         from a fresh slack/artificial basis. *)
      Log.debug (fun k -> k "warm re-optimization stalled; cold restart");
      st.n_fallback <- st.n_fallback + 1;
      solve_state st
  end

(* ---------- one-shot entry point ---------- *)

let solve ?(params = default_params) model =
  let n = Model.num_vars model in
  let m = Model.num_constraints model in
  let dir, obj = Model.objective model in
  let sign = match dir with Model.Minimize -> 1.0 | Model.Maximize -> -1.0 in
  if m = 0 then begin
    (* No constraints: each variable sits at its cost-optimal bound. *)
    let values = Array.make n 0.0 in
    let unbounded = ref false in
    for v = 0 to n - 1 do
      let c = sign *. Expr.coef obj v in
      let lo = Model.var_lb model v and hi = Model.var_ub model v in
      if c > 0.0 then
        if lo > neg_infinity then values.(v) <- lo else unbounded := true
      else if c < 0.0 then
        if hi < infinity then values.(v) <- hi else unbounded := true
      else values.(v) <- nearest_bound lo hi
    done;
    if !unbounded then Unbounded
    else
      Optimal
        { values; objective = Expr.eval (fun v -> values.(v)) obj; iterations = 0 }
  end
  else solve_state (assemble ~params model)
