let src = Logs.Src.create "agingfp.presolve" ~doc:"MILP presolve"

module Log = (val Logs.src_log src : Logs.LOG)
module Invariant = Agingfp_util.Invariant

(* ---------- per-rule bookkeeping ---------- *)

type rule_stats = {
  applications : int;
  rows_touched : int;
  vars_touched : int;
  coeffs_touched : int;
}

let no_rule_stats =
  { applications = 0; rows_touched = 0; vars_touched = 0; coeffs_touched = 0 }

let add_rule_stats a b =
  {
    applications = a.applications + b.applications;
    rows_touched = a.rows_touched + b.rows_touched;
    vars_touched = a.vars_touched + b.vars_touched;
    coeffs_touched = a.coeffs_touched + b.coeffs_touched;
  }

(* Stable rule order: structural row rules first, then the rewriting
   rules, then the relaxation-tightening and integer rules — also the
   execution order of one fixpoint round. *)
let rule_names =
  [
    "empty_row";
    "singleton_row";
    "redundant_row";
    "forcing_row";
    "bound_tighten";
    "synonym_subst";
    "free_col_subst";
    "coef_strengthen";
    "clique_reduce";
    "probe";
  ]

type reductions = {
  rounds : int;
  rows_removed : int;
  singleton_rows : int;
  vars_fixed : int;
  vars_substituted : int;
  bounds_tightened : int;
  coeffs_strengthened : int;
  probe_fixings : int;
  nnz_removed : int;
  nnz_fillin : int;
  per_rule : (string * rule_stats) list;
}

let no_reductions =
  {
    rounds = 0;
    rows_removed = 0;
    singleton_rows = 0;
    vars_fixed = 0;
    vars_substituted = 0;
    bounds_tightened = 0;
    coeffs_strengthened = 0;
    probe_fixings = 0;
    nnz_removed = 0;
    nnz_fillin = 0;
    per_rule = [];
  }

let add_reductions a b =
  let per_rule =
    List.filter_map
      (fun name ->
        let get r = List.assoc_opt name r.per_rule in
        match (get a, get b) with
        | None, None -> None
        | Some s, None | None, Some s -> Some (name, s)
        | Some s, Some s' -> Some (name, add_rule_stats s s'))
      rule_names
  in
  {
    rounds = a.rounds + b.rounds;
    rows_removed = a.rows_removed + b.rows_removed;
    singleton_rows = a.singleton_rows + b.singleton_rows;
    vars_fixed = a.vars_fixed + b.vars_fixed;
    vars_substituted = a.vars_substituted + b.vars_substituted;
    bounds_tightened = a.bounds_tightened + b.bounds_tightened;
    coeffs_strengthened = a.coeffs_strengthened + b.coeffs_strengthened;
    probe_fixings = a.probe_fixings + b.probe_fixings;
    nnz_removed = a.nnz_removed + b.nnz_removed;
    nnz_fillin = a.nnz_fillin + b.nnz_fillin;
    per_rule;
  }

let pp_reductions ppf r =
  Format.fprintf ppf
    "%d rounds: %d rows removed, %d vars fixed, %d substituted, %d bounds \
     tightened, %d coeffs strengthened, %d probe fixings, %d nnz removed, %d nnz \
     fill-in"
    r.rounds r.rows_removed r.vars_fixed r.vars_substituted r.bounds_tightened
    r.coeffs_strengthened r.probe_fixings r.nnz_removed r.nnz_fillin

let pp_per_rule ppf r =
  let fired = List.filter (fun (_, s) -> s.applications > 0) r.per_rule in
  if fired = [] then Format.pp_print_string ppf "(no rule fired)"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_cut ppf ())
      (fun ppf (name, s) ->
        Format.fprintf ppf "%-16s %5d applications, %4d rows, %4d vars, %4d coeffs"
          name s.applications s.rows_touched s.vars_touched s.coeffs_touched)
      ppf fired

(* ---------- postsolve transforms ---------- *)

(* A recorded rewriting, pushed newest-first. [Affine (v, k, terms)]
   reconstructs [x_v = k + sum c_u x_u]; every [u] was live when the
   transform was pushed, so replaying the stack newest-first always
   evaluates right-hand sides whose variables are already known. *)
type xform = Affine of int * float * (int * float) list

type t = {
  reduced_model : Model.t;
  var_map : int array; (* original var -> reduced var, or -1 if eliminated *)
  fixval : float array;
  stack : xform list; (* newest first *)
  n_orig : int;
  stats : reductions;
}

type outcome = Reduced of t | Proven_infeasible of string

let reduced t = t.reduced_model
let reductions t = t.stats
let num_orig_vars t = t.n_orig

let reduced_var t v =
  let j = t.var_map.(v) in
  if j < 0 then None else Some j

let postsolve t values =
  let out = Array.make t.n_orig 0.0 in
  for v = 0 to t.n_orig - 1 do
    let j = t.var_map.(v) in
    out.(v) <- (if j >= 0 then values.(j) else t.fixval.(v))
  done;
  List.iter
    (function
      | Affine (v, k, terms) ->
        out.(v) <-
          List.fold_left (fun acc (u, c) -> acc +. (c *. out.(u))) k terms)
    t.stack;
  out

exception Infeas of string

(* All thresholds: [feas_tol] guards infeasibility / redundancy
   declarations (conservative), [eps] recognizes exact structure
   (forcing rows, unit coefficients), [drop_tol] discards numerically
   cancelled coefficients created by substitutions. *)
let feas_tol = 1e-7
let eps = 1e-9
let drop_tol = 1e-11

(* Substituting a variable that lives in too many rows trades row
   count for fill; past this cap the rewrite stops paying for
   itself. *)
let max_subst_rows = 32

(* Sort [a.(0) .. a.(k - 1)] ascending in place (heapsort): no
   allocation, unlike sorting a copy. *)
let sort_prefix (a : int array) k =
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let t = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- t;
        sift c len
      end
    end
  in
  for i = (k / 2) - 1 downto 0 do
    sift i k
  done;
  for last = k - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- t;
    sift 0 last
  done

(* [a] (holding [len] elements) with room for at least [k]. *)
let grow_ints a len k =
  if k <= Array.length a then a
  else begin
    let b = Array.make (max k (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 len;
    b
  end

let grow_floats a len k =
  if k <= Array.length a then a
  else begin
    let b = Array.make (max k (2 * Array.length a)) 0.0 in
    Array.blit a 0 b 0 len;
    b
  end

let run ?(budget = Agingfp_util.Budget.unlimited) ?(integrality_tol = 1e-9)
    ?(max_rounds = 10) model =
  let n = Model.num_vars model in
  let m = Model.num_constraints model in
  let lb = Array.init n (Model.var_lb model) in
  let ub = Array.init n (Model.var_ub model) in
  let kind = Array.init n (Model.var_kind model) in
  let live_var = Array.make n true in
  let fixval = Array.make n 0.0 in
  (* Row [r] holds [row_len.(r)] terms, variable [row_vars.(r).(j)] with
     coefficient [row_coefs.(r).(j)], in the order every rule scans and
     sums them: ascending variable on entry, and a substitution moves
     the terms it adds or changes to the front. *)
  let row_vars = Array.make (max m 1) [||] in
  let row_coefs = Array.make (max m 1) [||] in
  let row_len = Array.make (max m 1) 0 in
  let row_rel = Array.make (max m 1) Model.Le in
  let row_rhs = Array.make (max m 1) 0.0 in
  let row_live = Array.make (max m 1) true in
  (* [var_rows.(v)] holds [var_nrows.(v)] rows, oldest first, and every
     walk over it runs newest first. It is a superset hint: rows are
     appended on fill-in and never retracted, so every consumer
     re-checks [row_live] and the term's actual presence. *)
  let var_rows = Array.make (max n 1) [||] in
  let var_nrows = Array.make (max n 1) 0 in
  let orig_nnz = ref 0 in
  Model.iter_constraints model (fun i lhs rel rhs ->
      let terms = Expr.terms lhs in
      let k = List.length terms in
      let vs = Array.make k 0 and cs = Array.make k 0.0 in
      List.iteri
        (fun j (v, c) ->
          vs.(j) <- v;
          cs.(j) <- c;
          var_nrows.(v) <- var_nrows.(v) + 1)
        terms;
      row_vars.(i) <- vs;
      row_coefs.(i) <- cs;
      row_len.(i) <- k;
      row_rel.(i) <- rel;
      row_rhs.(i) <- rhs;
      orig_nnz := !orig_nnz + k);
  for v = 0 to n - 1 do
    var_rows.(v) <- Array.make var_nrows.(v) 0;
    var_nrows.(v) <- 0
  done;
  for r = 0 to m - 1 do
    for j = 0 to row_len.(r) - 1 do
      let v = row_vars.(r).(j) in
      var_rows.(v).(var_nrows.(v)) <- r;
      var_nrows.(v) <- var_nrows.(v) + 1
    done
  done;
  (* The working objective: substitutions rewrite it in place, exactly
     as they rewrite rows. *)
  let dir, obj0 = Model.objective model in
  let obj_coef = Array.make n 0.0 in
  let obj_const = ref (Expr.constant obj0) in
  List.iter (fun (v, c) -> obj_coef.(v) <- c) (Expr.terms obj0);
  let stack = ref [] in

  (* Aggregate counters (kept for API compatibility) plus the per-rule
     table. *)
  let rows_removed = ref 0 in
  let singleton_rows = ref 0 in
  let vars_fixed = ref 0 in
  let vars_substituted = ref 0 in
  let bounds_tightened = ref 0 in
  let coeffs_strengthened = ref 0 in
  let probe_fixings = ref 0 in
  let changed = ref false in
  let nrules = List.length rule_names in
  let rule_index name =
    let rec go i = function
      | [] -> Invariant.invalid ~where:"Presolve" "unknown rule %s" name
      | r :: _ when r = name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 rule_names
  in
  let rule_label = Array.of_list rule_names in
  let r_apps = Array.make nrules 0
  and r_rows = Array.make nrules 0
  and r_vars = Array.make nrules 0
  and r_coeffs = Array.make nrules 0 in
  let touch rule ~rows ~vars ~coeffs =
    r_apps.(rule) <- r_apps.(rule) + 1;
    r_rows.(rule) <- r_rows.(rule) + rows;
    r_vars.(rule) <- r_vars.(rule) + vars;
    r_coeffs.(rule) <- r_coeffs.(rule) + coeffs
  in
  let rl_empty = rule_index "empty_row"
  and rl_singleton = rule_index "singleton_row"
  and rl_redundant = rule_index "redundant_row"
  and rl_forcing = rule_index "forcing_row"
  and rl_bound = rule_index "bound_tighten"
  and rl_synonym = rule_index "synonym_subst"
  and rl_freecol = rule_index "free_col_subst"
  and rl_coef = rule_index "coef_strengthen"
  and rl_clique = rule_index "clique_reduce"
  and rl_probe = rule_index "probe" in

  (* ---------- row storage ---------- *)
  (* Position of [v] in row [r], or -1. *)
  let find_term r v =
    let vs = row_vars.(r) and len = row_len.(r) in
    let rec from j = if j >= len then -1 else if vs.(j) = v then j else from (j + 1) in
    from 0
  in
  let remove_term r p =
    let len = row_len.(r) - 1 in
    Array.blit row_vars.(r) (p + 1) row_vars.(r) p (len - p);
    Array.blit row_coefs.(r) (p + 1) row_coefs.(r) p (len - p);
    row_len.(r) <- len
  in
  let push_front r v c =
    let len = row_len.(r) in
    row_vars.(r) <- grow_ints row_vars.(r) len (len + 1);
    row_coefs.(r) <- grow_floats row_coefs.(r) len (len + 1);
    Array.blit row_vars.(r) 0 row_vars.(r) 1 len;
    Array.blit row_coefs.(r) 0 row_coefs.(r) 1 len;
    row_vars.(r).(0) <- v;
    row_coefs.(r).(0) <- c;
    row_len.(r) <- len + 1
  in
  let add_var_row v r =
    let k = var_nrows.(v) in
    var_rows.(v) <- grow_ints var_rows.(v) k (k + 1);
    var_rows.(v).(k) <- r;
    var_nrows.(v) <- k + 1
  in
  (* Distinct rows of [var_rows.(v)] are told apart by stamping
     [row_seen] with a fresh [seen_stamp]. *)
  let row_seen = Array.make (max m 1) 0 in
  let seen_stamp = ref 0 in
  (* The live rows holding [v]: how many, and the last one found. *)
  let live_rows_of v =
    incr seen_stamp;
    let count = ref 0 and last = ref (-1) in
    for k = 0 to var_nrows.(v) - 1 do
      let r = var_rows.(v).(k) in
      if row_seen.(r) <> !seen_stamp then begin
        row_seen.(r) <- !seen_stamp;
        if row_live.(r) && find_term r v >= 0 then begin
          incr count;
          last := r
        end
      end
    done;
    (!count, !last)
  in

  (* Activity range of row [r] under the current bounds, leaving out the
     term at position [skip] (-1: none): the finite parts go to
     [act_fin] (minimum, maximum) and the counts of infinite
     contributions to [min_inf] / [max_inf] (the standard trick to keep
     per-variable residuals O(1)). Each end is summed in row order. *)
  let act_fin = Array.make 2 0.0 in
  let min_inf = ref 0 and max_inf = ref 0 in
  let row_activity r skip =
    let vs = row_vars.(r) and cs = row_coefs.(r) in
    let lo = ref 0.0 and hi = ref 0.0 and klo = ref 0 and khi = ref 0 in
    for j = 0 to row_len.(r) - 1 do
      if j <> skip then begin
        let v = vs.(j) and c = cs.(j) in
        let cmin = if c > 0.0 then c *. lb.(v) else c *. ub.(v) in
        if Float.equal cmin neg_infinity then incr klo else lo := !lo +. cmin;
        let cmax = if c > 0.0 then c *. ub.(v) else c *. lb.(v) in
        if Float.equal cmax infinity then incr khi else hi := !hi +. cmax
      end
    done;
    act_fin.(0) <- !lo;
    act_fin.(1) <- !hi;
    min_inf := !klo;
    max_inf := !khi
  in
  let round_integer_bounds v =
    if kind.(v) = Model.Integer then begin
      let lo = ceil (lb.(v) -. integrality_tol) in
      let hi = floor (ub.(v) +. integrality_tol) in
      if lo > lb.(v) then lb.(v) <- lo;
      if hi < ub.(v) then ub.(v) <- hi
    end
  in
  let check_var_consistent v where =
    if lb.(v) > ub.(v) +. feas_tol then
      raise
        (Infeas
           (Printf.sprintf "%s: variable %d (%s) has empty domain [%g, %g]" where v
              (Model.var_name model v) lb.(v) ub.(v)))
  in
  let check_row_consistent r where =
    (* A row whose terms all vanished must be trivially satisfied. *)
    if row_live.(r) && row_len.(r) = 0 then begin
      let rhs = row_rhs.(r) in
      let ok =
        match row_rel.(r) with
        | Model.Le -> 0.0 <= rhs +. feas_tol
        | Model.Ge -> 0.0 >= rhs -. feas_tol
        | Model.Eq -> abs_float rhs <= feas_tol
      in
      if not ok then
        raise
          (Infeas
             (Printf.sprintf "%s: row %d (%s) contradictory" where r
                (Model.row_name model r)))
    end
  in
  (* The row a rule is folding its own variables out of and removes
     right after (a singleton or forcing row): it may empty with a rhs
     residue inside that rule's tolerance, so it is not judged. *)
  let dying_row = ref (-1) in
  (* Pin [v] to [x]: fold it out of every row and the objective. A row
     this empties with an unsatisfiable rhs ends the run at once: no
     rule adds terms back to an empty row, and every path that removes
     or rebuilds one checks it first, so the run could only end
     [Proven_infeasible] on it later. *)
  let substitute_value rule v x =
    if live_var.(v) then begin
      fixval.(v) <- x;
      live_var.(v) <- false;
      lb.(v) <- x;
      ub.(v) <- x;
      incr vars_fixed;
      changed := true;
      obj_const := !obj_const +. (obj_coef.(v) *. x);
      obj_coef.(v) <- 0.0;
      let nrows = ref 0 in
      let rows = var_rows.(v) in
      for k = var_nrows.(v) - 1 downto 0 do
        let r = rows.(k) in
        if row_live.(r) then begin
          let p = find_term r v in
          if p >= 0 then begin
            row_rhs.(r) <- row_rhs.(r) -. (row_coefs.(r).(p) *. x);
            remove_term r p;
            incr nrows;
            if r <> !dying_row then check_row_consistent r rule_label.(rule)
          end
        end
      done;
      touch rule ~rows:0 ~vars:1 ~coeffs:!nrows
    end
  in
  (* Fix any variable whose domain collapsed (integers: to a single
     integer point; continuous: to a sliver). *)
  let fix_collapsed rule v =
    if live_var.(v) then begin
      round_integer_bounds v;
      check_var_consistent v "bound rounding";
      if ub.(v) < lb.(v) then begin
        (* Numerically inverted but inside feas_tol: a single point up
           to roundoff; collapse it rather than hand Model lb > ub. *)
        let x = (lb.(v) +. ub.(v)) /. 2.0 in
        substitute_value rule v (if kind.(v) = Model.Integer then Float.round x else x)
      end
      else if kind.(v) = Model.Integer then begin
        if lb.(v) = ub.(v) then substitute_value rule v lb.(v)
      end
      else if ub.(v) -. lb.(v) <= eps && lb.(v) > neg_infinity then
        substitute_value rule v ((lb.(v) +. ub.(v)) /. 2.0)
    end
  in
  let tighten_ub rule v x =
    if live_var.(v) && x < ub.(v) -. eps then begin
      ub.(v) <- x;
      incr bounds_tightened;
      touch rule ~rows:0 ~vars:1 ~coeffs:0;
      changed := true;
      fix_collapsed rule v
    end
  in
  let tighten_lb rule v x =
    if live_var.(v) && x > lb.(v) +. eps then begin
      lb.(v) <- x;
      incr bounds_tightened;
      touch rule ~rows:0 ~vars:1 ~coeffs:0;
      changed := true;
      fix_collapsed rule v
    end
  in
  let remove_row rule r =
    row_live.(r) <- false;
    incr rows_removed;
    touch rule ~rows:1 ~vars:0 ~coeffs:0;
    changed := true
  in
  (* Rewrite [x_v := k + sum c_u x_u] into every row and the
     objective, record the transform, and retire [v]. The caller is
     responsible for having encoded [v]'s bounds into the surviving
     variables first. In a row, [v]'s term goes, then each [u] in
     [terms] order is added or has its coefficient changed (dropped
     when it cancels), and moves to the front of the row. *)
  let substitute_affine rule v k terms =
    stack := Affine (v, k, terms) :: !stack;
    live_var.(v) <- false;
    incr vars_substituted;
    changed := true;
    let oc = obj_coef.(v) in
    if not (Float.equal oc 0.0) then begin
      obj_const := !obj_const +. (oc *. k);
      List.iter (fun (u, c) -> obj_coef.(u) <- obj_coef.(u) +. (oc *. c)) terms;
      obj_coef.(v) <- 0.0
    end;
    let nrows = ref 0 and ncoeffs = ref 0 in
    let rows = var_rows.(v) in
    for idx = var_nrows.(v) - 1 downto 0 do
      let r = rows.(idx) in
      if row_live.(r) then begin
        let p = find_term r v in
        if p >= 0 then begin
          let d = row_coefs.(r).(p) in
          incr nrows;
          remove_term r p;
          List.iter
            (fun (u, c) ->
              incr ncoeffs;
              let dc = d *. c in
              let q = find_term r u in
              if q < 0 then begin
                add_var_row u r;
                push_front r u dc
              end
              else begin
                let c' = row_coefs.(r).(q) +. dc in
                remove_term r q;
                if not (abs_float c' <= drop_tol) then push_front r u c'
              end)
            terms;
          row_rhs.(r) <- row_rhs.(r) -. (d *. k);
          check_row_consistent r "substitution"
        end
      end
    done;
    touch rule ~rows:!nrows ~vars:1 ~coeffs:!ncoeffs
  in
  (* Fix every variable of row [r] at the bound that gives the row its
     minimum ([at_min]) or maximum activity. Each fixing folds that
     variable out of [r], so the walk takes one step per term it
     started with and advances only past a term that is still there. *)
  let force_row r at_min =
    let j = ref 0 in
    for _ = 1 to row_len.(r) do
      let v = row_vars.(r).(!j) and c = row_coefs.(r).(!j) in
      substitute_value rl_forcing v (if (c > 0.0) = at_min then lb.(v) else ub.(v));
      if !j < row_len.(r) && row_vars.(r).(!j) = v then incr j
    done
  in

  (* ---------- row rules: empty / singleton / infeasible / redundant
     / forcing ---------- *)
  let process_row r =
    if row_live.(r) then begin
      let rhs = row_rhs.(r) in
      match row_len.(r) with
      | 0 ->
        check_row_consistent r "empty row";
        remove_row rl_empty r
      | 1 ->
        (* Singleton row: absorb into the variable's bounds. *)
        let v = row_vars.(r).(0) and c = row_coefs.(r).(0) in
        dying_row := r;
        let x = rhs /. c in
        (match row_rel.(r) with
        | Model.Eq ->
          if x < lb.(v) -. feas_tol || x > ub.(v) +. feas_tol then
            raise (Infeas (Printf.sprintf "singleton row %d pins var %d outside its domain" r v));
          if kind.(v) = Model.Integer && abs_float (x -. Float.round x) > 1e-6 then
            raise
              (Infeas
                 (Printf.sprintf "singleton row %d pins integer var %d to fractional %g" r v x));
          substitute_value rl_singleton v (if kind.(v) = Model.Integer then Float.round x else x)
        | Model.Le ->
          if c > 0.0 then tighten_ub rl_singleton v x else tighten_lb rl_singleton v x;
          check_var_consistent v "singleton row"
        | Model.Ge ->
          if c > 0.0 then tighten_lb rl_singleton v x else tighten_ub rl_singleton v x;
          check_var_consistent v "singleton row");
        remove_row rl_singleton r;
        dying_row := -1;
        incr singleton_rows
      | _ ->
        row_activity r (-1);
        let min_fin = act_fin.(0) and max_fin = act_fin.(1) in
        let min_inf = !min_inf and max_inf = !max_inf in
        let minact = if min_inf > 0 then neg_infinity else min_fin in
        let maxact = if max_inf > 0 then infinity else max_fin in
        let infeasible =
          match row_rel.(r) with
          | Model.Le -> minact > rhs +. feas_tol
          | Model.Ge -> maxact < rhs -. feas_tol
          | Model.Eq -> minact > rhs +. feas_tol || maxact < rhs -. feas_tol
        in
        if infeasible then
          raise
            (Infeas
               (Printf.sprintf "row %d activity range [%g, %g] excludes rhs %g" r minact
                  maxact rhs));
        let redundant =
          match row_rel.(r) with
          | Model.Le -> maxact <= rhs +. feas_tol
          | Model.Ge -> minact >= rhs -. feas_tol
          | Model.Eq -> maxact <= rhs +. feas_tol && minact >= rhs -. feas_tol
        in
        if redundant then remove_row rl_redundant r
        else begin
          (* Forcing rows: the activity bound meets the rhs exactly, so
             every variable must sit at the bound realizing it. *)
          let forcing_min =
            (row_rel.(r) = Model.Le || row_rel.(r) = Model.Eq)
            && min_inf = 0
            && min_fin >= rhs -. eps
          in
          let forcing_max =
            (row_rel.(r) = Model.Ge || row_rel.(r) = Model.Eq)
            && max_inf = 0
            && max_fin <= rhs +. eps
          in
          if forcing_min || forcing_max then begin
            dying_row := r;
            force_row r forcing_min;
            remove_row rl_forcing r;
            dying_row := -1
          end
        end
    end
  in

  (* ---------- activity-based bound tightening over one row ---------- *)
  (* The activity sums and the rhs are taken once, before the walk; a
     tightening that collapses a variable folds it out of [r], so the
     walk takes one step per term it started with and advances only
     past a term that is still there. *)
  let tighten_row r =
    if row_live.(r) && row_len.(r) >= 2 then begin
      let rhs = row_rhs.(r) in
      row_activity r (-1);
      let min_fin = act_fin.(0) and max_fin = act_fin.(1) in
      let min_inf = !min_inf and max_inf = !max_inf in
      let j = ref 0 in
      for _ = 1 to row_len.(r) do
        let v = row_vars.(r).(!j) and c = row_coefs.(r).(!j) in
        if live_var.(v) then begin
          (* <=-direction: x_v restricted by the smallest the rest of
             the row can be. *)
          if row_rel.(r) = Model.Le || row_rel.(r) = Model.Eq then begin
            let contrib = if c > 0.0 then c *. lb.(v) else c *. ub.(v) in
            let resid_ok =
              if Float.equal contrib neg_infinity then min_inf = 1 else min_inf = 0
            in
            if resid_ok then begin
              let resid =
                if Float.equal contrib neg_infinity then min_fin else min_fin -. contrib
              in
              let x = (rhs -. resid) /. c in
              if c > 0.0 then tighten_ub rl_bound v x else tighten_lb rl_bound v x
            end
          end;
          (* >=-direction: mirrored with the maximum activity. *)
          if row_rel.(r) = Model.Ge || row_rel.(r) = Model.Eq then begin
            let contrib = if c > 0.0 then c *. ub.(v) else c *. lb.(v) in
            let resid_ok =
              if Float.equal contrib infinity then max_inf = 1 else max_inf = 0
            in
            if resid_ok then begin
              let resid =
                if Float.equal contrib infinity then max_fin else max_fin -. contrib
              in
              let x = (rhs -. resid) /. c in
              if c > 0.0 then tighten_lb rl_bound v x else tighten_ub rl_bound v x
            end
          end
        end;
        if !j < row_len.(r) && row_vars.(r).(!j) = v then incr j
      done
    end
  in

  let is_int_value x = abs_float (x -. Float.round x) <= 1e-9 in

  (* ---------- synonym (doubleton-equality) substitution ---------- *)
  (* [a x + b y = c]: eliminate one of the two, rewriting it as an
     affine function of the survivor. The eliminated variable's bounds
     are first folded into the survivor's (the map is a bijection, so
     the encoding is exact), which makes dropping the variable and the
     row a pure reparametrization. *)
  let synonym_row r =
    if row_live.(r) && row_rel.(r) = Model.Eq && row_len.(r) = 2 then begin
      let x = row_vars.(r).(0) and a = row_coefs.(r).(0) in
      let y = row_vars.(r).(1) and b = row_coefs.(r).(1) in
      if live_var.(x) && live_var.(y) then begin
        let try_eliminate e ce o co =
          if abs_float ce < eps then false
          else begin
            let ratio = co /. ce and k = row_rhs.(r) /. ce in
            if abs_float ratio > 1e6 || abs_float k > 1e12 then false
            else if
              kind.(e) = Model.Integer
              && not (kind.(o) = Model.Integer && is_int_value ratio && is_int_value k)
            then false
            else if fst (live_rows_of e) > max_subst_rows then false
            else begin
              (* x_e = k - ratio * x_o; push e's bounds onto o. IEEE
                 division by the nonzero ratio maps infinite bounds to
                 correctly signed infinities for either sign of ratio,
                 so the endpoints just need sorting; an infinite
                 endpoint imposes no restriction and is skipped. *)
              let lo_e = lb.(e) and hi_e = ub.(e) in
              let b1 = (k -. hi_e) /. ratio and b2 = (k -. lo_e) /. ratio in
              let o_lo = Float.min b1 b2 and o_hi = Float.max b1 b2 in
              if Float.is_finite o_lo && o_lo > lb.(o) +. eps then tighten_lb rl_synonym o o_lo;
              if Float.is_finite o_hi && o_hi < ub.(o) -. eps then tighten_ub rl_synonym o o_hi;
              check_var_consistent o "synonym substitution";
              remove_row rl_synonym r;
              if live_var.(o) then substitute_affine rl_synonym e k [ (o, -.ratio) ]
              else begin
                (* The bound fold collapsed o; e is now determined. *)
                let xe = k -. (ratio *. fixval.(o)) in
                substitute_value rl_synonym e
                  (if kind.(e) = Model.Integer then Float.round xe else xe)
              end;
              true
            end
          end
        in
        (* Prefer eliminating the larger-coefficient variable: the
           substitution ratio stays <= 1, which is the numerically
           safe direction. *)
        if abs_float a >= abs_float b then begin
          if not (try_eliminate x a y b) then ignore (try_eliminate y b x a)
        end
        else if not (try_eliminate y b x a) then ignore (try_eliminate x a y b)
      end
    end
  in

  (* ---------- implied-free column-singleton substitution ---------- *)
  (* A continuous variable appearing in exactly one live row, an
     equality, whose implied range (from the other terms' bounds) sits
     inside its own bounds: solve the row for it and drop both. The
     variable's bounds can never bind, so nothing is lost. *)
  let free_col_subst v =
    if live_var.(v) && kind.(v) = Model.Continuous then begin
      let count, r = live_rows_of v in
      if count = 1 && row_rel.(r) = Model.Eq then begin
        let p = find_term r v in
        let a = row_coefs.(r).(p) in
        (* A lone term is a singleton row, handled by process_row. *)
        if abs_float a >= eps && row_len.(r) > 1 then begin
          row_activity r p;
          if !min_inf = 0 && !max_inf = 0 then begin
            let min_fin = act_fin.(0) and max_fin = act_fin.(1) in
            let rhs = row_rhs.(r) in
            let i1 = (rhs -. max_fin) /. a and i2 = (rhs -. min_fin) /. a in
            let implied_lo = Float.min i1 i2 and implied_hi = Float.max i1 i2 in
            if implied_lo >= lb.(v) -. feas_tol && implied_hi <= ub.(v) +. feas_tol then begin
              let rest = ref [] in
              for j = row_len.(r) - 1 downto 0 do
                if j <> p then rest := (row_vars.(r).(j), -.row_coefs.(r).(j) /. a) :: !rest
              done;
              remove_row rl_freecol r;
              substitute_affine rl_freecol v (rhs /. a) !rest
            end
          end
        end
      end
    end
  in

  let is_binary v =
    live_var.(v) && kind.(v) = Model.Integer && lb.(v) >= -.eps && ub.(v) <= 1.0 +. eps
  in

  (* ---------- knapsack coefficient strengthening ---------- *)
  (* For a <= row with binary x_k (coef a > 0), if the row is slack
     even at maximum activity whenever x_k = 0 (maxact - a < rhs), the
     pair (a, rhs) can be replaced by (maxact - rhs, maxact - a): the
     x_k = 0 and x_k = 1 branches keep exactly the same feasible
     rests, but the LP relaxation shrinks. Mirrored for a < 0 and for
     >= rows via min activity. Fires only on rows with binaries, so a
     purely continuous model is never touched. A strengthened
     coefficient is rewritten in place, at the term being looked at. *)
  let strengthen_row r =
    if row_live.(r) && row_len.(r) >= 2 then begin
      let vs = row_vars.(r) and cs = row_coefs.(r) in
      match row_rel.(r) with
      | Model.Le ->
        row_activity r (-1);
        if !max_inf = 0 then begin
          let u = ref act_fin.(1) in
          for j = 0 to row_len.(r) - 1 do
            let v = vs.(j) and a = cs.(j) in
            if is_binary v && row_rhs.(r) < !u -. feas_tol then begin
              let b = row_rhs.(r) in
              if a > eps && !u -. a < b -. feas_tol then begin
                let a' = !u -. b and b' = !u -. a in
                if a' < a -. eps then begin
                  cs.(j) <- a';
                  row_rhs.(r) <- b';
                  u := !u -. a +. a';
                  incr coeffs_strengthened;
                  touch rl_coef ~rows:1 ~vars:0 ~coeffs:1;
                  changed := true
                end
              end
              else if a < -.eps && !u < b -. a -. feas_tol then begin
                let a' = b -. !u in
                if a' > a +. eps then begin
                  cs.(j) <- a';
                  incr coeffs_strengthened;
                  touch rl_coef ~rows:1 ~vars:0 ~coeffs:1;
                  changed := true
                end
              end
            end
          done
        end
      | Model.Ge ->
        row_activity r (-1);
        if !min_inf = 0 then begin
          let l = ref act_fin.(0) in
          for j = 0 to row_len.(r) - 1 do
            let v = vs.(j) and a = cs.(j) in
            if is_binary v && !l < row_rhs.(r) -. feas_tol then begin
              let b = row_rhs.(r) in
              if a > eps && !l > b -. a +. feas_tol then begin
                let a' = b -. !l in
                if a' < a -. eps then begin
                  cs.(j) <- a';
                  incr coeffs_strengthened;
                  touch rl_coef ~rows:1 ~vars:0 ~coeffs:1;
                  changed := true
                end
              end
              else if a < -.eps && !l -. a > b +. feas_tol then begin
                let a' = !l -. b and b' = !l -. a in
                if a' > a +. eps then begin
                  cs.(j) <- a';
                  row_rhs.(r) <- b';
                  l := !l -. a +. a';
                  incr coeffs_strengthened;
                  touch rl_coef ~rows:1 ~vars:0 ~coeffs:1;
                  changed := true
                end
              end
            end
          done
        end
      | Model.Eq -> ()
    end
  in

  (* ---------- cliques from the formulation-(3) structure ---------- *)
  (* A clique is a set of binaries of which at most one (capacity
     rows, <= 1) or exactly one (assignment rows, = 1) can be set.
     Both redundancy detection and probing use them. Clique [ci] is
     [clq_mem.(clq_start.(ci) .. clq_start.(ci + 1) - 1)] in its row's
     term order, defined by row [clq_src.(ci)] ([clq_exact]: = 1);
     variable [v] is in cliques [vc_list.(vc_start.(v) ..
     vc_start.(v + 1) - 1)], highest index first. *)
  let nclq = ref 0 in
  let clq_exact = ref [||] and clq_src = ref [||] in
  let clq_start = ref [| 0 |] and clq_mem = ref [||] in
  let is_clique_source = Array.make (max m 1) false in
  let vc_start = Array.make (n + 1) 0 in
  let vc_next = Array.make (max n 1) 0 in
  let vc_list = ref [||] in
  let unit_binary_row r =
    let vs = row_vars.(r) and cs = row_coefs.(r) and len = row_len.(r) in
    let rec from j =
      j >= len || (abs_float (cs.(j) -. 1.0) <= eps && is_binary vs.(j) && from (j + 1))
    in
    from 0
  in
  let build_cliques () =
    Array.fill is_clique_source 0 (Array.length is_clique_source) false;
    nclq := 0;
    let nmem = ref 0 in
    for r = 0 to m - 1 do
      if
        row_live.(r)
        && (match row_rel.(r) with Model.Eq | Model.Le -> true | Model.Ge -> false)
        && abs_float (row_rhs.(r) -. 1.0) <= eps
        && row_len.(r) >= 2
        && unit_binary_row r
      then begin
        let ci = !nclq and len = row_len.(r) in
        if ci = Array.length !clq_src then begin
          let cap = max 16 (2 * ci) in
          let e = Array.make cap false in
          Array.blit !clq_exact 0 e 0 ci;
          clq_exact := e;
          clq_src := grow_ints !clq_src ci cap;
          clq_start := grow_ints !clq_start (ci + 1) (cap + 1)
        end;
        !clq_exact.(ci) <- row_rel.(r) = Model.Eq;
        !clq_src.(ci) <- r;
        is_clique_source.(r) <- true;
        clq_mem := grow_ints !clq_mem !nmem (!nmem + len);
        Array.blit row_vars.(r) 0 !clq_mem !nmem len;
        nmem := !nmem + len;
        !clq_start.(ci + 1) <- !nmem;
        nclq := ci + 1
      end
    done;
    let mem = !clq_mem and start = !clq_start in
    Array.fill vc_start 0 (n + 1) 0;
    for p = 0 to !nmem - 1 do
      vc_start.(mem.(p) + 1) <- vc_start.(mem.(p) + 1) + 1
    done;
    for v = 1 to n do
      vc_start.(v) <- vc_start.(v) + vc_start.(v - 1)
    done;
    Array.blit vc_start 0 vc_next 0 n;
    vc_list := grow_ints !vc_list 0 !nmem;
    let list = !vc_list in
    for ci = !nclq - 1 downto 0 do
      for p = start.(ci) to start.(ci + 1) - 1 do
        let v = mem.(p) in
        list.(vc_next.(v)) <- ci;
        vc_next.(v) <- vc_next.(v) + 1
      done
    done
  in
  let in_cliques v = vc_start.(v + 1) > vc_start.(v) in

  (* Clique-aware activity range of a row: terms covered by a clique
     contribute at most the clique's best member (and, for = 1 cliques
     fully contained in the row, at least its worst), not the sum —
     exactly why a path-budget row whose per-operation candidate
     groups all fit the budget is redundant even though plain activity
     overshoots. The range goes to [act_fin] (minimum, maximum, with
     the infinities folded in). Row membership and assignment are
     stamps of [cl_stamp] in [in_row] and [assigned]; the loose terms
     and the groups are summed newest first. *)
  let cl_stamp = ref 0 in
  let in_row = Array.make (max n 1) 0 in
  let coef_in_row = Array.make (max n 1) 0.0 in
  let assigned = Array.make (max n 1) 0 in
  let loose = ref [||] in
  let group_lo = ref [||] and group_hi = ref [||] in
  let clique_activity r =
    incr cl_stamp;
    let s = !cl_stamp in
    let vs = row_vars.(r) and cs = row_coefs.(r) and len = row_len.(r) in
    loose := grow_ints !loose 0 len;
    group_lo := grow_floats !group_lo 0 len;
    group_hi := grow_floats !group_hi 0 len;
    let loose = !loose and group_lo = !group_lo and group_hi = !group_hi in
    for j = 0 to len - 1 do
      in_row.(vs.(j)) <- s;
      coef_in_row.(vs.(j)) <- cs.(j)
    done;
    let nloose = ref 0 and ngroups = ref 0 in
    let add_loose j =
      assigned.(vs.(j)) <- s;
      loose.(!nloose) <- j;
      incr nloose
    in
    let mem = !clq_mem and start = !clq_start in
    let cover ci =
      let k = ref 0 in
      for p = start.(ci) to start.(ci + 1) - 1 do
        let u = mem.(p) in
        if in_row.(u) = s && assigned.(u) <> s then incr k
      done;
      !k
    in
    for j = 0 to len - 1 do
      let v = vs.(j) in
      if assigned.(v) <> s then begin
        if is_binary v && in_cliques v then begin
          (* Greedy: use the clique covering the most unassigned row
             variables. *)
          let best = ref (-1) and best_cover = ref 0 in
          for q = vc_start.(v) to vc_start.(v + 1) - 1 do
            let ci = !vc_list.(q) in
            if !clq_src.(ci) <> r then begin
              let k = cover ci in
              if k > !best_cover then begin
                best := ci;
                best_cover := k
              end
            end
          done;
          if !best >= 0 && !best_cover >= 2 then begin
            let ci = !best in
            let cmax = ref neg_infinity and cmin = ref infinity in
            for p = start.(ci) to start.(ci + 1) - 1 do
              let u = mem.(p) in
              if in_row.(u) = s && assigned.(u) <> s then begin
                assigned.(u) <- s;
                cmax := Float.max !cmax coef_in_row.(u);
                cmin := Float.min !cmin coef_in_row.(u)
              end
            done;
            (* An = 1 clique pins the group's low end only when the
               group holds every member: a member already counted in
               another group may be the one set to 1. *)
            let full = !clq_exact.(ci) && !best_cover = start.(ci + 1) - start.(ci) in
            group_hi.(!ngroups) <- (if full then !cmax else Float.max 0.0 !cmax);
            group_lo.(!ngroups) <- (if full then !cmin else Float.min 0.0 !cmin);
            incr ngroups
          end
          else add_loose j
        end
        else add_loose j
      end
    done;
    let lo = ref 0.0 and hi = ref 0.0 and klo = ref 0 and khi = ref 0 in
    for q = !nloose - 1 downto 0 do
      let v = vs.(loose.(q)) and c = cs.(loose.(q)) in
      let cmin = if c > 0.0 then c *. lb.(v) else c *. ub.(v) in
      if Float.equal cmin neg_infinity then incr klo else lo := !lo +. cmin;
      let cmax = if c > 0.0 then c *. ub.(v) else c *. lb.(v) in
      if Float.equal cmax infinity then incr khi else hi := !hi +. cmax
    done;
    let gmin = ref 0.0 and gmax = ref 0.0 in
    for g = !ngroups - 1 downto 0 do
      gmin := !gmin +. group_lo.(g);
      gmax := !gmax +. group_hi.(g)
    done;
    act_fin.(0) <- (if !klo > 0 then neg_infinity else !lo +. !gmin);
    act_fin.(1) <- (if !khi > 0 then infinity else !hi +. !gmax)
  in

  (* Remove rows the clique structure proves redundant. Clique-source
     rows are never removed by this rule, so every removal certificate
     stays grounded in rows that survive (or in bounds alone). *)
  let clique_reduce r =
    if row_live.(r) && row_len.(r) >= 2 && not is_clique_source.(r) then begin
      clique_activity r;
      let minact = act_fin.(0) and maxact = act_fin.(1) in
      let rhs = row_rhs.(r) in
      let redundant =
        match row_rel.(r) with
        | Model.Le -> maxact <= rhs +. feas_tol
        | Model.Ge -> minact >= rhs -. feas_tol
        | Model.Eq -> maxact <= rhs +. feas_tol && minact >= rhs -. feas_tol
      in
      if redundant then remove_row rl_clique r
      else begin
        let infeasible =
          match row_rel.(r) with
          | Model.Le -> minact > rhs +. feas_tol
          | Model.Ge -> maxact < rhs -. feas_tol
          | Model.Eq -> minact > rhs +. feas_tol || maxact < rhs -. feas_tol
        in
        if infeasible then
          raise
            (Infeas
               (Printf.sprintf "row %d clique-activity range [%g, %g] excludes rhs %g" r
                  minact maxact rhs))
      end
    end
  in

  (* ---------- clique-aware probing ---------- *)
  (* Tentatively set a binary to 1; every clique containing it forces
     its mates to 0. If any touched row's activity range then excludes
     its rhs, the binary can never be 1 — fix it to 0.

     Probing is the most expensive rule by an order of magnitude, so
     it is throttled two ways, both deterministic: each variable is
     probed at most once per [run] (fixings cascade through the other
     rules anyway), and the whole pass stops after a term-scan budget
     proportional to the matrix size — the standard work limit every
     production presolver puts on probing. *)
  let probed = Array.make (max n 1) false in
  let probe_ops = ref 0 in
  let probe_ops_limit = max 200_000 (40 * !orig_nnz) in
  (* Per-probe scratch, reused across probes so a probe allocates
     nothing: a variable is forced in the current probe when its mark
     equals [stamp] (its value is then [forced_val]), a row is touched
     when its mark does, and [touched] lists the touched rows. *)
  let stamp = ref 0 in
  let forced_mark = Array.make (max n 1) 0 in
  let forced_val = Array.make (max n 1) 0.0 in
  let row_mark = Array.make (max m 1) 0 in
  let touched = Array.make (max m 1) 0 in
  let ntouched = ref 0 in
  let force u x =
    if forced_mark.(u) <> !stamp then begin
      forced_mark.(u) <- !stamp;
      let rows = var_rows.(u) in
      for k = 0 to var_nrows.(u) - 1 do
        let r = rows.(k) in
        if row_mark.(r) <> !stamp then begin
          row_mark.(r) <- !stamp;
          touched.(!ntouched) <- r;
          incr ntouched
        end
      done
    end;
    forced_val.(u) <- x
  in
  let force_cliques v =
    let mem = !clq_mem and start = !clq_start in
    for q = vc_start.(v) to vc_start.(v + 1) - 1 do
      let ci = !vc_list.(q) in
      for p = start.(ci) to start.(ci + 1) - 1 do
        let u = mem.(p) in
        if u <> v && live_var.(u) then force u 0.0
      done
    done
  in
  (* One scan accumulates both activity ends of a row under the probe,
     forced variables at their forced values. *)
  let contradicts r =
    let vs = row_vars.(r) and cs = row_coefs.(r) and len = row_len.(r) in
    probe_ops := !probe_ops + len;
    let lo = ref 0.0 and hi = ref 0.0 and klo = ref 0 and khi = ref 0 in
    for j = 0 to len - 1 do
      let u = vs.(j) and c = cs.(j) in
      if forced_mark.(u) = !stamp then begin
        let t = c *. forced_val.(u) in
        lo := !lo +. t;
        hi := !hi +. t
      end
      else begin
        let cmin = if c > 0.0 then c *. lb.(u) else c *. ub.(u) in
        let cmax = if c > 0.0 then c *. ub.(u) else c *. lb.(u) in
        if Float.equal cmin neg_infinity then incr klo else lo := !lo +. cmin;
        if Float.equal cmax infinity then incr khi else hi := !hi +. cmax
      end
    done;
    let minact = if !klo > 0 then neg_infinity else !lo in
    let maxact = if !khi > 0 then infinity else !hi in
    match row_rel.(r) with
    | Model.Le -> minact > row_rhs.(r) +. feas_tol
    | Model.Ge -> maxact < row_rhs.(r) -. feas_tol
    | Model.Eq -> minact > row_rhs.(r) +. feas_tol || maxact < row_rhs.(r) -. feas_tol
  in
  (* The live touched rows in ascending order, up to the first
     contradiction. *)
  let rec any_contradiction i =
    i < !ntouched
    && ((row_live.(touched.(i)) && contradicts touched.(i)) || any_contradiction (i + 1))
  in
  let probe_var v =
    if is_binary v && (not probed.(v)) && in_cliques v && !probe_ops < probe_ops_limit
    then begin
      probed.(v) <- true;
      incr stamp;
      ntouched := 0;
      force v 1.0;
      force_cliques v;
      sort_prefix touched !ntouched;
      if any_contradiction 0 then begin
        (* substitute_value records the application, so the per-rule
           counter stays equal to probe_fixings. *)
        incr probe_fixings;
        substitute_value rl_probe v 0.0
      end
    end
  in

  let rounds = ref 0 in
  let expired () = Agingfp_util.Budget.expired budget in
  let outcome =
    try
      (* Initial integer bound sanitation. *)
      for v = 0 to n - 1 do
        fix_collapsed rl_bound v
      done;
      let continue_ = ref true in
      (* Budget checks sit between rule passes: a partial presolve is
         still a valid (just less reduced) problem, so stopping early
         degrades quality, never correctness. *)
      while !continue_ && !rounds < max_rounds && not (expired ()) do
        incr rounds;
        changed := false;
        for r = 0 to m - 1 do
          process_row r
        done;
        if not (expired ()) then
          for r = 0 to m - 1 do
            tighten_row r
          done;
        if not (expired ()) then
          for r = 0 to m - 1 do
            synonym_row r
          done;
        if not (expired ()) then
          for v = 0 to n - 1 do
            free_col_subst v
          done;
        if not (expired ()) then begin
          build_cliques ();
          for r = 0 to m - 1 do
            clique_reduce r
          done
        end;
        if not (expired ()) then
          for r = 0 to m - 1 do
            strengthen_row r
          done;
        if not (expired ()) then begin
          (* Probing invalidates the clique table as it fixes
             variables; rebuild, then probe every clique member. *)
          build_cliques ();
          let mem = !clq_mem and start = !clq_start in
          for ci = 0 to !nclq - 1 do
            if not (expired ()) then
              for p = start.(ci) to start.(ci + 1) - 1 do
                probe_var mem.(p)
              done
          done
        end;
        continue_ := !changed
      done;
      None
    with Infeas msg -> Some msg
  in
  match outcome with
  | Some msg -> Proven_infeasible msg
  | None -> (
    (* Rebuild a compacted model. *)
    let var_map = Array.make n (-1) in
    let reduced_model = Model.create () in
    for v = 0 to n - 1 do
      if live_var.(v) then
        var_map.(v) <-
          Model.add_var reduced_model ~name:(Model.var_name model v) ~lb:lb.(v)
            ~ub:ub.(v) ~kind:kind.(v)
    done;
    try
      let reduced_nnz = ref 0 in
      for r = 0 to m - 1 do
        if row_live.(r) then begin
          let len = row_len.(r) in
          if len = 0 then check_row_consistent r "rebuild"
          else begin
            reduced_nnz := !reduced_nnz + len;
            let terms = ref [] in
            for j = len - 1 downto 0 do
              terms := (var_map.(row_vars.(r).(j)), row_coefs.(r).(j)) :: !terms
            done;
            ignore
              (Model.add_constraint ~name:(Model.row_name model r) reduced_model
                 (Expr.of_terms !terms) row_rel.(r) row_rhs.(r))
          end
        end
      done;
      let obj_terms = ref [] in
      for v = n - 1 downto 0 do
        if live_var.(v) && not (Float.equal obj_coef.(v) 0.0) then
          obj_terms := (var_map.(v), obj_coef.(v)) :: !obj_terms
      done;
      (* Adding a term adds 0 to the constant (which turns a -0 into
         +0), so the constant is summed only when a term is kept. *)
      let obj' =
        if !obj_terms = [] then Expr.const !obj_const
        else Expr.add (Expr.const !obj_const) (Expr.of_terms !obj_terms)
      in
      Model.set_objective reduced_model dir obj';
      let per_rule =
        List.mapi
          (fun i name ->
            ( name,
              {
                applications = r_apps.(i);
                rows_touched = r_rows.(i);
                vars_touched = r_vars.(i);
                coeffs_touched = r_coeffs.(i);
              } ))
          rule_names
      in
      (* Substitution fill-in can outweigh eliminations; report the net
         change as two nonnegative figures rather than one counter that
         could go negative. *)
      let nnz_delta = !orig_nnz - !reduced_nnz in
      let stats =
        {
          rounds = !rounds;
          rows_removed = !rows_removed;
          singleton_rows = !singleton_rows;
          vars_fixed = !vars_fixed;
          vars_substituted = !vars_substituted;
          bounds_tightened = !bounds_tightened;
          coeffs_strengthened = !coeffs_strengthened;
          probe_fixings = !probe_fixings;
          nnz_removed = max 0 nnz_delta;
          nnz_fillin = max 0 (-nnz_delta);
          per_rule;
        }
      in
      Log.debug (fun k -> k "presolve: %a" pp_reductions stats);
      Reduced { reduced_model; var_map; fixval; stack = !stack; n_orig = n; stats }
    with Infeas msg -> Proven_infeasible msg)
