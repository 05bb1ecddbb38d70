(* Cutting planes for the Eq. (3) MILPs: Gomory mixed-integer cuts
   read off the warm simplex tableau, lifted knapsack cover cuts from
   the capacity rows, and the pool that manages their life cycle.

   Soundness discipline (the part worth being paranoid about): every
   cut emitted here must be valid for the INTEGER hull of the root
   (presolved) model, not merely for the node relaxation it was
   separated at — the pool shares cuts across the whole tree.
   Concretely:

   - Gomory shifts use the GLOBAL variable bounds supplied by the
     caller, never the node-tightened branching bounds. The tableau
     identity x_B(r) + Σ ā_j x_j = const holds for any x satisfying
     the row system, so rewriting it over globally non-negative
     shifted variables x̃_j = x_j − l_j (or u_j − x_j) keeps every
     step of the mixed-integer rounding argument globally valid.
   - Slack variables substitute through their defining row equation
     s_i = b_i − a_i·x, which holds identically — even for a
     deactivated cut row, whose inequality remains valid for the
     integer hull although the LP no longer enforces it.
   - Dropping a numerically tiny coefficient relaxes the right-hand
     side by the term's worst case over the global box (or keeps the
     term when that box is unbounded); we never silently strengthen.
   - Every finished cut gets a small right-hand-side safety margin,
     and the incumbent is re-checked against all generated cuts in
     exact rational arithmetic ({!check_all}) before a solve reports
     success. *)

module Invariant = Agingfp_util.Invariant
module Rat = Agingfp_util.Rat

type provenance = Gomory of { basic_var : int } | Cover of { row : int }

let pp_provenance ppf = function
  | Gomory { basic_var } -> Format.fprintf ppf "gomory(basic x%d)" basic_var
  | Cover { row } -> Format.fprintf ppf "cover(row %d)" row

type cut = {
  id : int;
  provenance : provenance;
  terms : (int * float) list; (* structural space, sorted by var, Le sense *)
  rhs : float;
}

let pp_cut ppf c =
  let pp_term ppf (v, a) = Format.fprintf ppf "%+g x%d" a v in
  Format.fprintf ppf "#%d %a:%a <= %g" c.id pp_provenance c.provenance
    (fun ppf -> List.iter (Format.fprintf ppf " %a" pp_term))
    c.terms c.rhs

(* The cut pool's capacity (also the row slots the search's LP state
   reserves), cuts admitted per separation round, the violation needed
   to accept or reactivate a cut, and the consecutive slack
   observations before a cut is deactivated. *)
let max_cuts = 96
let max_per_round = 16
let min_violation = 1e-6
let age_limit = 8

(* The [k] first elements of a list. *)
let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

(* ---------- cut pool ---------- *)

type entry = {
  cut : cut;
  mutable active : bool;
  mutable age : int; (* consecutive observations with positive slack *)
  mutable binding_rounds : int;
}

type pool = {
  mutable entries : entry array;
  mutable len : int;
  seen : (string, unit) Hashtbl.t;
  mutable n_aged_out : int;
  mutable n_reactivated : int;
}

let create_pool () =
  {
    entries = [||];
    len = 0;
    seen = Hashtbl.create 64;
    n_aged_out = 0;
    n_reactivated = 0;
  }

let size p = p.len

let entry p id =
  if id < 0 || id >= p.len then Invariant.invalid ~where:"Cuts.get" "bad cut id %d" id;
  p.entries.(id)

let get p id = (entry p id).cut
let is_active p id = (entry p id).active

let key terms rhs =
  let b = Buffer.create 64 in
  List.iter (fun (v, c) -> Buffer.add_string b (Printf.sprintf "%d:%.14g;" v c)) terms;
  Buffer.add_string b (Printf.sprintf "<=%.14g" rhs);
  Buffer.contents b

(* Admit a separated cut: deduplicated against everything ever seen,
   rejected when the pool (= the reserved row capacity of the search's
   LP state) is full. Returns the new cut's id. *)
let admit p ~provenance ~terms ~rhs =
  if p.len >= max_cuts then None
  else begin
    let k = key terms rhs in
    if Hashtbl.mem p.seen k then None
    else begin
      Hashtbl.add p.seen k ();
      let cut = { id = p.len; provenance; terms; rhs } in
      let e = { cut; active = true; age = 0; binding_rounds = 0 } in
      if Array.length p.entries = p.len then begin
        let cap = max 16 (2 * Array.length p.entries) in
        let arr = Array.make cap e in
        Array.blit p.entries 0 arr 0 p.len;
        p.entries <- arr
      end;
      p.entries.(p.len) <- e;
      p.len <- p.len + 1;
      Some cut.id
    end
  end

let eval_terms terms value =
  List.fold_left (fun acc (v, c) -> acc +. (c *. value v)) 0.0 terms

(* Activity-based aging, fed one LP optimum at a time: an active cut
   with positive slack ages; once it exceeds [age_limit] it
   is deactivated (its row is relaxed in the search's LP state, it never
   binds again unless re-violated). An inactive cut violated by the
   current point re-enters the active set. *)
let observe p value =
  let slack_tol = 1e-7 in
  for id = 0 to p.len - 1 do
    let e = p.entries.(id) in
    let slack = e.cut.rhs -. eval_terms e.cut.terms value in
    if e.active then
      if slack > slack_tol then begin
        e.age <- e.age + 1;
        if e.age > age_limit then begin
          e.active <- false;
          p.n_aged_out <- p.n_aged_out + 1
        end
      end
      else begin
        e.age <- 0;
        e.binding_rounds <- e.binding_rounds + 1
      end
    else if slack < -.min_violation then begin
      e.active <- true;
      e.age <- 0;
      p.n_reactivated <- p.n_reactivated + 1
    end
  done

type pool_stats = {
  separated : int;
  active : int;
  aged_out : int;
  reactivated : int;
}

let pool_stats p =
  let active = ref 0 in
  for id = 0 to p.len - 1 do
    if p.entries.(id).active then incr active
  done;
  { separated = p.len; active = !active; aged_out = p.n_aged_out; reactivated = p.n_reactivated }

(* ---------- Gomory mixed-integer separation ---------- *)

type shift = Sh_fixed of float | Sh_lb of float | Sh_ub of float

exception Reject

(* One candidate: basis position [pos] holding integer structural
   [bc]. Returns the finished structural-space Le cut with its
   violation at the current point, or raises [Reject]. *)
let gomory_of_row ~st ~is_int ~global_lb ~global_ub ~row_terms ~row_rhs ~row_rel ~pos ~bc =
  let n = Simplex.structural_count st in
  let cap = Simplex.row_capacity st in
  let mrows = Simplex.num_rows st in
  let alpha = Simplex.tableau_row st ~pos in
  let xb = Simplex.column_value st bc in
  (* The tableau identity x_bc + Σ ā_j x_j = K; K recovered from the
     current point, which satisfies it. *)
  let kconst = ref xb in
  let shifted =
    List.map
      (fun (j, a) ->
        let cur = Simplex.column_value st j in
        kconst := !kconst +. (a *. cur);
        let lo, hi, integer =
          if j < n then (global_lb.(j), global_ub.(j), is_int j)
          else if j < n + cap then begin
            let i = j - n in
            if i >= mrows then (0.0, 0.0, false)
            else
              match row_rel i with
              | Model.Le -> (0.0, infinity, false)
              | Model.Ge -> (neg_infinity, 0.0, false)
              | Model.Eq -> (0.0, 0.0, false)
          end
          else (0.0, 0.0, false) (* artificial: locked at 0 *)
        in
        let shift =
          if hi -. lo <= 1e-12 then Sh_fixed lo
          else if lo > neg_infinity then
            if hi < infinity then if cur -. lo <= hi -. cur then Sh_lb lo else Sh_ub hi
            else Sh_lb lo
          else if hi < infinity then Sh_ub hi
          else raise Reject (* free column: no globally valid shift *)
        in
        (j, a, shift, integer))
      alpha
  in
  (* Shifted right-hand side and its fractional part. *)
  let bbar =
    List.fold_left
      (fun acc (_, a, s, _) ->
        match s with
        | Sh_fixed v -> acc -. (a *. v)
        | Sh_lb l -> acc -. (a *. l)
        | Sh_ub u -> acc -. (a *. u))
      !kconst shifted
  in
  let f0 = bbar -. floor bbar in
  if f0 < 0.01 || f0 > 0.99 then raise Reject;
  (* Accumulate the >=-sense cut over structural variables,
     substituting slack columns through their defining rows. *)
  let coef = Array.make n 0.0 in
  let touched = ref [] in
  let rhs_ge = ref 1.0 in
  let add_struct v c =
    if not (Float.equal c 0.0) then begin
      touched := v :: !touched;
      coef.(v) <- coef.(v) +. c
    end
  in
  let add_col j c =
    if j < n then add_struct j c
    else begin
      let i = j - n in
      (* s_i = b_i − a_i·x identically, so c·s_i trades for a constant
         and structural terms. Valid for cut rows too. *)
      rhs_ge := !rhs_ge -. (c *. row_rhs i);
      List.iter (fun (v, av) -> add_struct v (-.c *. av)) (row_terms i)
    end
  in
  let gamma_of a' integer =
    if integer then begin
      let fj = a' -. floor a' in
      if fj <= f0 then fj /. f0 else (1.0 -. fj) /. (1.0 -. f0)
    end
    else if a' >= 0.0 then a' /. f0
    else -.a' /. (1.0 -. f0)
  in
  List.iter
    (fun (j, a, s, integer) ->
      match s with
      | Sh_fixed _ -> ()
      | Sh_lb l ->
        (* An integer shifted variable stays integer only over an
           integral bound; otherwise fall back to the continuous
           (weaker but valid) coefficient. *)
        let int_ok = integer && abs_float (l -. Float.round l) <= 1e-9 in
        let g = gamma_of a int_ok in
        if g > 1e-13 then begin
          add_col j g;
          rhs_ge := !rhs_ge +. (g *. l)
        end
      | Sh_ub u ->
        let int_ok = integer && abs_float (u -. Float.round u) <= 1e-9 in
        let g = gamma_of (-.a) int_ok in
        if g > 1e-13 then begin
          add_col j (-.g);
          rhs_ge := !rhs_ge -. (g *. u)
        end)
    shifted;
  (* Flip to Le sense and clean up. *)
  let vars = List.sort_uniq compare !touched in
  let items =
    List.filter_map
      (fun v ->
        let c = -.coef.(v) in
        if Float.equal c 0.0 then None else Some (v, c))
      vars
  in
  let rhs_le = ref (-. !rhs_ge) in
  let maxc = List.fold_left (fun acc (_, c) -> Float.max acc (abs_float c)) 0.0 items in
  if maxc < 1e-12 || not (Float.is_finite maxc) then raise Reject;
  let scale = 1.0 /. maxc in
  let items = List.map (fun (v, c) -> (v, c *. scale)) items in
  rhs_le := !rhs_le *. scale;
  (* Drop tiny coefficients with a worst-case rhs relaxation over the
     global box; an unbounded box forces a reject rather than an
     invalid drop. *)
  let kept =
    List.filter
      (fun (v, c) ->
        if abs_float c >= 1e-7 then true
        else begin
          let lo = global_lb.(v) and hi = global_ub.(v) in
          let worst = if c > 0.0 then c *. lo else c *. hi in
          if Float.is_finite worst then begin
            rhs_le := !rhs_le -. worst;
            false
          end
          else raise Reject
        end)
      items
  in
  if kept = [] then raise Reject;
  if not (Float.is_finite !rhs_le) then raise Reject;
  (* Safety margin: give every cut a hair of slack so float round-off
     in the derivation can never cut off an integer-feasible point the
     exact audit would accept. *)
  rhs_le := !rhs_le +. (1e-9 *. (1.0 +. abs_float !rhs_le));
  let viol =
    List.fold_left (fun acc (v, c) -> acc +. (c *. Simplex.column_value st v)) 0.0 kept
    -. !rhs_le
  in
  (Gomory { basic_var = bc }, kept, !rhs_le, viol)

let separate_gomory ~st ~is_int ~global_lb ~global_ub ~row_terms ~row_rhs ~row_rel =
  let n = Simplex.structural_count st in
  let mrows = Simplex.num_rows st in
  (* Candidate rows: integer structural basics with fractional value,
     most fractional first (deterministic tie-break on the variable). *)
  let cands = ref [] in
  for pos = 0 to mrows - 1 do
    let bc = Simplex.basis_column st pos in
    if bc >= 0 && bc < n && is_int bc then begin
      let xv = Simplex.column_value st bc in
      let fr = xv -. floor xv in
      if fr > 0.01 && fr < 0.99 then cands := (abs_float (fr -. 0.5), pos, bc) :: !cands
    end
  done;
  let cands =
    List.sort
      (fun (d1, _, v1) (d2, _, v2) ->
        match Float.compare d1 d2 with 0 -> compare v1 v2 | c -> c)
      !cands
  in
  let out = ref [] in
  List.iter
    (fun (_, pos, bc) ->
      match
        gomory_of_row ~st ~is_int ~global_lb ~global_ub ~row_terms ~row_rhs ~row_rel ~pos
          ~bc
      with
      | exception Reject -> ()
      | (_, _, _, viol) as c -> if viol > min_violation then out := c :: !out)
    cands;
  let out =
    List.sort
      (fun (p1, _, _, v1) (p2, _, _, v2) ->
        match Float.compare v2 v1 with 0 -> compare p1 p2 | c -> c)
      !out
  in
  take max_per_round out

(* ---------- lifted knapsack cover separation ---------- *)

(* Normalize a model row into knapsack form Σ c_v x_v <= b over
   positive-coefficient binaries, pushing everything else to the
   right-hand side at its worst case over the global box. *)
let knapsack_of_row ~is_binary ~global_lb ~global_ub terms rhs =
  let b = ref rhs in
  let items = ref [] in
  try
    List.iter
      (fun (v, c) ->
        if Float.equal c 0.0 then ()
        else if is_binary v then
          if c > 0.0 then items := (v, c) :: !items else b := !b -. c
        else begin
          let lo = global_lb.(v) and hi = global_ub.(v) in
          let mn = if c > 0.0 then c *. lo else c *. hi in
          if Float.is_finite mn then b := !b -. mn else raise Exit
        end)
      terms;
    if !items = [] then None else Some (List.rev !items, !b)
  with Exit -> None

let cover_of_knapsack ~values ~row items b =
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 items in
  if total <= b +. 1e-7 then None
  else begin
    (* Greedy cover: most fractional-active items first. *)
    let by_val =
      List.sort
        (fun (v1, _) (v2, _) ->
          match Float.compare values.(v2) values.(v1) with
          | 0 -> compare v1 v2
          | c -> c)
        items
    in
    let weight = ref 0.0 in
    let cover = ref [] in
    (try
       List.iter
         (fun (v, c) ->
           cover := (v, c) :: !cover;
           weight := !weight +. c;
           if !weight > b +. 1e-7 then raise Exit)
         by_val
     with Exit -> ());
    if !weight <= b +. 1e-7 then None
    else begin
      (* Minimalize: drop light items whose removal keeps the cover. *)
      let asc =
        List.sort
          (fun (v1, c1) (v2, c2) ->
            match Float.compare c1 c2 with 0 -> compare v1 v2 | c -> c)
          !cover
      in
      let kept = ref [] in
      List.iter
        (fun (v, c) ->
          if !weight -. c > b +. 1e-7 then weight := !weight -. c
          else kept := (v, c) :: !kept)
        asc;
      let cover = !kept in
      let size = List.length cover in
      if size < 1 then None
      else begin
        let amax = List.fold_left (fun acc (_, c) -> Float.max acc c) 0.0 cover in
        let in_cover v = List.exists (fun (v', _) -> v' = v) cover in
        (* Extended lifting: any item at least as heavy as the cover's
           heaviest can join with coefficient 1. *)
        let ext =
          List.filter (fun (v, c) -> (not (in_cover v)) && c >= amax -. 1e-12) items
        in
        let members = List.map fst cover @ List.map fst ext in
        let members = List.sort_uniq compare members in
        let rhs = float_of_int (size - 1) in
        let terms = List.map (fun v -> (v, 1.0)) members in
        let viol = List.fold_left (fun acc v -> acc +. values.(v)) 0.0 members -. rhs in
        Some (Cover { row }, terms, rhs, viol)
      end
    end
  end

let separate_cover ~model_rows ~is_binary ~global_lb ~global_ub ~values =
  let out = ref [] in
  List.iter
    (fun (row, terms, rel, rhs) ->
      let knaps =
        match rel with
        | Model.Le -> [ (terms, rhs) ]
        | Model.Ge -> [ (List.map (fun (v, c) -> (v, -.c)) terms, -.rhs) ]
        | Model.Eq -> []
      in
      List.iter
        (fun (terms, rhs) ->
          match knapsack_of_row ~is_binary ~global_lb ~global_ub terms rhs with
          | None -> ()
          | Some (items, b) -> (
            match cover_of_knapsack ~values ~row items b with
            | Some ((_, _, _, viol) as c) when viol > min_violation -> out := c :: !out
            | _ -> ()))
        knaps)
    model_rows;
  let out =
    List.sort
      (fun (p1, _, _, v1) (p2, _, _, v2) ->
        match Float.compare v2 v1 with 0 -> compare p1 p2 | c -> c)
      !out
  in
  take max_per_round out

(* ---------- exact rational audit ---------- *)

let check ?(tol = 1e-6) cut value =
  let q = Rat.of_float in
  let lhs =
    List.fold_left
      (fun acc (v, c) -> Rat.add acc (Rat.mul (q c) (q (value v))))
      Rat.zero cut.terms
  in
  let bound = Rat.add (q cut.rhs) (q tol) in
  if Rat.compare lhs bound <= 0 then Ok ()
  else
    Error
      (Format.asprintf
         "cut #%d (%a) cuts off the solution: lhs = %s > rhs %g (+ tol %g)" cut.id
         pp_provenance cut.provenance (Rat.to_string lhs) cut.rhs tol)

let check_all ?tol p value =
  let result = ref (Ok ()) in
  (try
     for id = 0 to p.len - 1 do
       match check ?tol p.entries.(id).cut value with
       | Ok () -> ()
       | Error _ as e ->
         result := e;
         raise Exit
     done
   with Exit -> ());
  !result
