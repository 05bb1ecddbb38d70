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

let run ?(budget = Agingfp_util.Budget.unlimited) ?(integrality_tol = 1e-9)
    ?(max_rounds = 10) model =
  let n = Model.num_vars model in
  let m = Model.num_constraints model in
  let lb = Array.init n (Model.var_lb model) in
  let ub = Array.init n (Model.var_ub model) in
  let kind = Array.init n (Model.var_kind model) in
  let live_var = Array.make n true in
  let fixval = Array.make n 0.0 in
  let row_terms = Array.make (max m 1) [] in
  let row_rel = Array.make (max m 1) Model.Le in
  let row_rhs = Array.make (max m 1) 0.0 in
  let row_live = Array.make (max m 1) true in
  let var_rows = Array.make (max n 1) [] in
  (* [var_rows] is a superset hint: rows are appended on fill-in and
     never retracted, so every consumer re-checks [row_live] and the
     term's actual presence. *)
  let orig_nnz = ref 0 in
  Model.iter_constraints model (fun i lhs rel rhs ->
      row_terms.(i) <- Expr.terms lhs;
      row_rel.(i) <- rel;
      row_rhs.(i) <- rhs;
      orig_nnz := !orig_nnz + List.length (Expr.terms lhs);
      List.iter (fun (v, _) -> var_rows.(v) <- i :: var_rows.(v)) (Expr.terms lhs));
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
  let touch rule ?(rows = 0) ?(vars = 0) ?(coeffs = 0) () =
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

  (* Minimum activity of [terms] under current bounds: finite part +
     count of infinite contributions (the standard trick to keep
     per-variable residuals O(1)). *)
  let min_activity terms =
    List.fold_left
      (fun (s, k) (v, c) ->
        let contrib = if c > 0.0 then c *. lb.(v) else c *. ub.(v) in
        if Float.equal contrib neg_infinity then (s, k + 1) else (s +. contrib, k))
      (0.0, 0) terms
  in
  let max_activity terms =
    List.fold_left
      (fun (s, k) (v, c) ->
        let contrib = if c > 0.0 then c *. ub.(v) else c *. lb.(v) in
        if Float.equal contrib infinity then (s, k + 1) else (s +. contrib, k))
      (0.0, 0) terms
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
    if row_live.(r) && row_terms.(r) = [] then begin
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
      List.iter
        (fun r ->
          if row_live.(r) then begin
            match List.assoc_opt v row_terms.(r) with
            | None -> ()
            | Some c ->
              row_rhs.(r) <- row_rhs.(r) -. (c *. x);
              row_terms.(r) <- List.filter (fun (u, _) -> u <> v) row_terms.(r);
              incr nrows;
              if r <> !dying_row then check_row_consistent r rule_label.(rule)
          end)
        var_rows.(v);
      touch rule ~vars:1 ~coeffs:!nrows ()
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
      touch rule ~vars:1 ();
      changed := true;
      fix_collapsed rule v;
      true
    end
    else false
  in
  let tighten_lb rule v x =
    if live_var.(v) && x > lb.(v) +. eps then begin
      lb.(v) <- x;
      incr bounds_tightened;
      touch rule ~vars:1 ();
      changed := true;
      fix_collapsed rule v;
      true
    end
    else false
  in
  let remove_row rule r =
    row_live.(r) <- false;
    incr rows_removed;
    touch rule ~rows:1 ();
    changed := true
  in
  let live_row_count v =
    List.fold_left
      (fun acc r ->
        if row_live.(r) && List.mem_assoc v row_terms.(r) then acc + 1 else acc)
      0
      (List.sort_uniq compare var_rows.(v))
  in
  (* Rewrite [x_v := k + sum c_u x_u] into every row and the
     objective, record the transform, and retire [v]. The caller is
     responsible for having encoded [v]'s bounds into the surviving
     variables first. *)
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
    List.iter
      (fun r ->
        if row_live.(r) then begin
          match List.assoc_opt v row_terms.(r) with
          | None -> ()
          | Some d ->
            incr nrows;
            let base = List.filter (fun (u, _) -> u <> v) row_terms.(r) in
            let merged =
              List.fold_left
                (fun acc (u, c) ->
                  incr ncoeffs;
                  let dc = d *. c in
                  match List.assoc_opt u acc with
                  | None ->
                    var_rows.(u) <- r :: var_rows.(u);
                    (u, dc) :: acc
                  | Some c0 ->
                    let c' = c0 +. dc in
                    let acc = List.filter (fun (w, _) -> w <> u) acc in
                    if abs_float c' <= drop_tol then acc else (u, c') :: acc)
                base terms
            in
            row_terms.(r) <- merged;
            row_rhs.(r) <- row_rhs.(r) -. (d *. k);
            check_row_consistent r "substitution"
        end)
      var_rows.(v);
    touch rule ~vars:1 ~rows:!nrows ~coeffs:!ncoeffs ()
  in

  (* ---------- row rules: empty / singleton / infeasible / redundant
     / forcing ---------- *)
  let process_row r =
    if row_live.(r) then begin
      let rhs = row_rhs.(r) in
      match row_terms.(r) with
      | [] ->
        check_row_consistent r "empty row";
        remove_row rl_empty r
      | [ (v, c) ] ->
        (* Singleton row: absorb into the variable's bounds. *)
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
          if c > 0.0 then ignore (tighten_ub rl_singleton v x)
          else ignore (tighten_lb rl_singleton v x);
          check_var_consistent v "singleton row"
        | Model.Ge ->
          if c > 0.0 then ignore (tighten_lb rl_singleton v x)
          else ignore (tighten_ub rl_singleton v x);
          check_var_consistent v "singleton row");
        remove_row rl_singleton r;
        dying_row := -1;
        incr singleton_rows
      | terms ->
        let min_fin, min_inf = min_activity terms in
        let max_fin, max_inf = max_activity terms in
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
          if forcing_min then begin
            dying_row := r;
            List.iter
              (fun (v, c) ->
                substitute_value rl_forcing v (if c > 0.0 then lb.(v) else ub.(v)))
              terms;
            remove_row rl_forcing r;
            dying_row := -1
          end
          else if forcing_max then begin
            dying_row := r;
            List.iter
              (fun (v, c) ->
                substitute_value rl_forcing v (if c > 0.0 then ub.(v) else lb.(v)))
              terms;
            remove_row rl_forcing r;
            dying_row := -1
          end
        end
    end
  in

  (* ---------- activity-based bound tightening over one row ---------- *)
  let tighten_row r =
    if row_live.(r) then begin
      let terms = row_terms.(r) in
      match terms with
      | [] | [ _ ] -> ()
      | _ ->
        let rhs = row_rhs.(r) in
        let min_fin, min_inf = min_activity terms in
        let max_fin, max_inf = max_activity terms in
        List.iter
          (fun (v, c) ->
            if live_var.(v) then begin
              (* <=-direction: x_v restricted by the smallest the rest
                 of the row can be. *)
              if row_rel.(r) = Model.Le || row_rel.(r) = Model.Eq then begin
                let contrib = if c > 0.0 then c *. lb.(v) else c *. ub.(v) in
                let resid_ok =
                  if Float.equal contrib neg_infinity then min_inf = 1 else min_inf = 0
                in
                if resid_ok then begin
                  let resid =
                    if Float.equal contrib neg_infinity then min_fin
                    else min_fin -. contrib
                  in
                  let x = (rhs -. resid) /. c in
                  if c > 0.0 then ignore (tighten_ub rl_bound v x)
                  else ignore (tighten_lb rl_bound v x)
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
                    if Float.equal contrib infinity then max_fin
                    else max_fin -. contrib
                  in
                  let x = (rhs -. resid) /. c in
                  if c > 0.0 then ignore (tighten_lb rl_bound v x)
                  else ignore (tighten_ub rl_bound v x)
                end
              end
            end)
          terms
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
    if row_live.(r) && row_rel.(r) = Model.Eq then
      match row_terms.(r) with
      | [ (x, a); (y, b) ] when live_var.(x) && live_var.(y) ->
        let try_eliminate (e, ce) (o, co) =
          if abs_float ce < eps then false
          else begin
            let ratio = co /. ce and k = row_rhs.(r) /. ce in
            if abs_float ratio > 1e6 || abs_float k > 1e12 then false
            else if
              kind.(e) = Model.Integer
              && not (kind.(o) = Model.Integer && is_int_value ratio && is_int_value k)
            then false
            else if live_row_count e > max_subst_rows then false
            else begin
              (* x_e = k - ratio * x_o; push e's bounds onto o. IEEE
                 division by the nonzero ratio maps infinite bounds to
                 correctly signed infinities for either sign of ratio,
                 so the endpoints just need sorting; an infinite
                 endpoint imposes no restriction and is skipped. *)
              let lo_e = lb.(e) and hi_e = ub.(e) in
              let b1 = (k -. hi_e) /. ratio and b2 = (k -. lo_e) /. ratio in
              let o_lo = Float.min b1 b2 and o_hi = Float.max b1 b2 in
              if Float.is_finite o_lo && o_lo > lb.(o) +. eps then
                ignore (tighten_lb rl_synonym o o_lo);
              if Float.is_finite o_hi && o_hi < ub.(o) -. eps then
                ignore (tighten_ub rl_synonym o o_hi);
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
        let first, second =
          if abs_float a >= abs_float b then (((x, a), (y, b)), ((y, b), (x, a)))
          else (((y, b), (x, a)), ((x, a), (y, b)))
        in
        let (e1, o1), (e2, o2) = (first, second) in
        if not (try_eliminate e1 o1) then ignore (try_eliminate e2 o2)
      | _ -> ()
  in

  (* ---------- implied-free column-singleton substitution ---------- *)
  (* A continuous variable appearing in exactly one live row, an
     equality, whose implied range (from the other terms' bounds) sits
     inside its own bounds: solve the row for it and drop both. The
     variable's bounds can never bind, so nothing is lost. *)
  let free_col_subst v =
    if live_var.(v) && kind.(v) = Model.Continuous then begin
      let rows =
        List.filter
          (fun r -> row_live.(r) && List.mem_assoc v row_terms.(r))
          (List.sort_uniq compare var_rows.(v))
      in
      match rows with
      | [ r ] when row_rel.(r) = Model.Eq -> (
        match List.assoc_opt v row_terms.(r) with
        | Some a when abs_float a >= eps -> (
          let rest = List.filter (fun (u, _) -> u <> v) row_terms.(r) in
          match rest with
          | [] -> () (* singleton row; handled by process_row *)
          | _ ->
            let min_fin, min_inf = min_activity rest in
            let max_fin, max_inf = max_activity rest in
            if min_inf = 0 && max_inf = 0 then begin
              let rhs = row_rhs.(r) in
              let i1 = (rhs -. max_fin) /. a and i2 = (rhs -. min_fin) /. a in
              let implied_lo = Float.min i1 i2 and implied_hi = Float.max i1 i2 in
              if implied_lo >= lb.(v) -. feas_tol && implied_hi <= ub.(v) +. feas_tol
              then begin
                remove_row rl_freecol r;
                substitute_affine rl_freecol v (rhs /. a)
                  (List.map (fun (u, c) -> (u, -.c /. a)) rest)
              end
            end)
        | _ -> ())
      | _ -> ()
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
     purely continuous model is never touched. *)
  let strengthen_row r =
    if row_live.(r) then begin
      match row_terms.(r) with
      | [] | [ _ ] -> ()
      | terms when row_rel.(r) = Model.Le ->
        let max_fin, max_inf = max_activity terms in
        if max_inf = 0 then begin
          let u = ref max_fin in
          List.iter
            (fun (v, a) ->
              if is_binary v && row_rhs.(r) < !u -. feas_tol then begin
                let b = row_rhs.(r) in
                if a > eps && !u -. a < b -. feas_tol then begin
                  let a' = !u -. b and b' = !u -. a in
                  if a' < a -. eps then begin
                    row_terms.(r) <-
                      List.map (fun (w, c) -> if w = v then (w, a') else (w, c)) row_terms.(r);
                    row_rhs.(r) <- b';
                    u := !u -. a +. a';
                    incr coeffs_strengthened;
                    touch rl_coef ~rows:1 ~coeffs:1 ();
                    changed := true
                  end
                end
                else if a < -.eps && !u < b -. a -. feas_tol then begin
                  let a' = b -. !u in
                  if a' > a +. eps then begin
                    row_terms.(r) <-
                      List.map (fun (w, c) -> if w = v then (w, a') else (w, c)) row_terms.(r);
                    incr coeffs_strengthened;
                    touch rl_coef ~rows:1 ~coeffs:1 ();
                    changed := true
                  end
                end
              end)
            terms
        end
      | terms when row_rel.(r) = Model.Ge ->
        let min_fin, min_inf = min_activity terms in
        if min_inf = 0 then begin
          let l = ref min_fin in
          List.iter
            (fun (v, a) ->
              if is_binary v && !l < row_rhs.(r) -. feas_tol then begin
                let b = row_rhs.(r) in
                if a > eps && !l > b -. a +. feas_tol then begin
                  let a' = b -. !l in
                  if a' < a -. eps then begin
                    row_terms.(r) <-
                      List.map (fun (w, c) -> if w = v then (w, a') else (w, c)) row_terms.(r);
                    incr coeffs_strengthened;
                    touch rl_coef ~rows:1 ~coeffs:1 ();
                    changed := true
                  end
                end
                else if a < -.eps && !l -. a > b +. feas_tol then begin
                  let a' = !l -. b and b' = !l -. a in
                  if a' > a +. eps then begin
                    row_terms.(r) <-
                      List.map (fun (w, c) -> if w = v then (w, a') else (w, c)) row_terms.(r);
                    row_rhs.(r) <- b';
                    l := !l -. a +. a';
                    incr coeffs_strengthened;
                    touch rl_coef ~rows:1 ~coeffs:1 ();
                    changed := true
                  end
                end
              end)
            terms
        end
      | _ -> ()
    end
  in

  (* ---------- cliques from the formulation-(3) structure ---------- *)
  (* A clique is a set of binaries of which at most one (capacity
     rows, <= 1) or exactly one (assignment rows, = 1) can be set.
     Both redundancy detection and probing use them. *)
  let clique_exact = ref [||] (* per clique: true when = 1, false when <= 1 *)
  and clique_members = ref [||]
  and clique_source = ref [||] (* defining row index *)
  and is_clique_source = Array.make (max m 1) false
  and var_cliques = Array.make (max n 1) [] in
  let build_cliques () =
    Array.fill var_cliques 0 (Array.length var_cliques) [];
    Array.fill is_clique_source 0 (Array.length is_clique_source) false;
    let acc = ref [] in
    for r = 0 to m - 1 do
      if
        row_live.(r)
        && (match row_rel.(r) with Model.Eq | Model.Le -> true | Model.Ge -> false)
        && abs_float (row_rhs.(r) -. 1.0) <= eps
        && List.length row_terms.(r) >= 2
        && List.for_all
             (fun (v, c) -> abs_float (c -. 1.0) <= eps && is_binary v)
             row_terms.(r)
      then acc := (row_rel.(r) = Model.Eq, List.map fst row_terms.(r), r) :: !acc
    done;
    let cl = Array.of_list (List.rev !acc) in
    clique_exact := Array.map (fun (e, _, _) -> e) cl;
    clique_members := Array.map (fun (_, ms, _) -> ms) cl;
    clique_source := Array.map (fun (_, _, r) -> r) cl;
    Array.iter (fun (_, _, r) -> is_clique_source.(r) <- true) cl;
    Array.iteri
      (fun i (_, ms, _) ->
        List.iter (fun v -> var_cliques.(v) <- i :: var_cliques.(v)) ms)
      cl
  in

  (* Clique-aware activity range of a row: terms covered by a clique
     contribute at most the clique's best member (and, for = 1 cliques
     fully contained in the row, at least its worst), not the sum —
     exactly why a path-budget row whose per-operation candidate
     groups all fit the budget is redundant even though plain activity
     overshoots. *)
  let clique_activity r =
    let terms = row_terms.(r) in
    let assigned = Hashtbl.create 16 in
    let row_vars = Hashtbl.create 16 in
    List.iter (fun (v, c) -> Hashtbl.replace row_vars v c) terms;
    let groups = ref [] and loose = ref [] in
    List.iter
      (fun (v, c) ->
        if not (Hashtbl.mem assigned v) then begin
          if is_binary v && var_cliques.(v) <> [] then begin
            (* Greedy: use the clique covering the most unassigned row
               variables. *)
            let best = ref (-1) and best_cover = ref [] in
            List.iter
              (fun ci ->
                if !clique_source.(ci) <> r then begin
                  let cover =
                    List.filter
                      (fun u -> Hashtbl.mem row_vars u && not (Hashtbl.mem assigned u))
                      !clique_members.(ci)
                  in
                  if List.length cover > List.length !best_cover then begin
                    best := ci;
                    best_cover := cover
                  end
                end)
              var_cliques.(v);
            if !best >= 0 && List.length !best_cover >= 2 then begin
              List.iter (fun u -> Hashtbl.replace assigned u ()) !best_cover;
              let cs = List.map (fun u -> Hashtbl.find row_vars u) !best_cover in
              let cmax = List.fold_left Float.max neg_infinity cs in
              let cmin = List.fold_left Float.min infinity cs in
              (* An = 1 clique pins the group's low end only when the
                 group holds every member: a member already counted in
                 another group may be the one set to 1. *)
              let full =
                !clique_exact.(!best)
                && List.compare_lengths !best_cover !clique_members.(!best) = 0
              in
              let gmax = if full then cmax else Float.max 0.0 cmax in
              let gmin = if full then cmin else Float.min 0.0 cmin in
              groups := (gmin, gmax) :: !groups
            end
            else begin
              Hashtbl.replace assigned v ();
              loose := (v, c) :: !loose
            end
          end
          else begin
            Hashtbl.replace assigned v ();
            loose := (v, c) :: !loose
          end
        end)
      terms;
    let min_fin, min_inf = min_activity !loose in
    let max_fin, max_inf = max_activity !loose in
    let gmin = List.fold_left (fun a (lo, _) -> a +. lo) 0.0 !groups in
    let gmax = List.fold_left (fun a (_, hi) -> a +. hi) 0.0 !groups in
    let minact = if min_inf > 0 then neg_infinity else min_fin +. gmin in
    let maxact = if max_inf > 0 then infinity else max_fin +. gmax in
    (minact, maxact)
  in

  (* Remove rows the clique structure proves redundant. Clique-source
     rows are never removed by this rule, so every removal certificate
     stays grounded in rows that survive (or in bounds alone). *)
  let clique_reduce r =
    if row_live.(r) && List.length row_terms.(r) >= 2 && not is_clique_source.(r)
    then begin
      let minact, maxact = clique_activity r in
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
  let rec touch_rows = function
    | [] -> ()
    | r :: tl ->
      if row_mark.(r) <> !stamp then begin
        row_mark.(r) <- !stamp;
        touched.(!ntouched) <- r;
        incr ntouched
      end;
      touch_rows tl
  in
  let force u x =
    if forced_mark.(u) <> !stamp then begin
      forced_mark.(u) <- !stamp;
      touch_rows var_rows.(u)
    end;
    forced_val.(u) <- x
  in
  let rec force_mates v = function
    | [] -> ()
    | u :: tl ->
      if u <> v && live_var.(u) then force u 0.0;
      force_mates v tl
  in
  let rec force_cliques v = function
    | [] -> ()
    | ci :: tl ->
      force_mates v !clique_members.(ci);
      force_cliques v tl
  in
  (* One scan accumulates both activity ends of a row under the probe:
     [act.(0)]/[act.(1)] are the finite low/high sums, [lo_inf]/[hi_inf]
     count infinite contributions. *)
  let act = Array.make 2 0.0 in
  let lo_inf = ref 0 and hi_inf = ref 0 in
  let add_term u c =
    if forced_mark.(u) = !stamp then begin
      let t = c *. forced_val.(u) in
      act.(0) <- act.(0) +. t;
      act.(1) <- act.(1) +. t
    end
    else begin
      let cmin = if c > 0.0 then c *. lb.(u) else c *. ub.(u) in
      let cmax = if c > 0.0 then c *. ub.(u) else c *. lb.(u) in
      if Float.equal cmin neg_infinity then incr lo_inf else act.(0) <- act.(0) +. cmin;
      if Float.equal cmax infinity then incr hi_inf else act.(1) <- act.(1) +. cmax
    end
  in
  let rec scan_terms = function
    | [] -> ()
    | (u, c) :: tl ->
      add_term u c;
      scan_terms tl
  in
  let contradicts r =
    let terms = row_terms.(r) in
    probe_ops := !probe_ops + List.length terms;
    act.(0) <- 0.0;
    act.(1) <- 0.0;
    lo_inf := 0;
    hi_inf := 0;
    scan_terms terms;
    let minact = if !lo_inf > 0 then neg_infinity else act.(0) in
    let maxact = if !hi_inf > 0 then infinity else act.(1) in
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
    if
      is_binary v
      && (not probed.(v))
      && var_cliques.(v) <> []
      && !probe_ops < probe_ops_limit
    then begin
      probed.(v) <- true;
      incr stamp;
      ntouched := 0;
      force v 1.0;
      force_cliques v var_cliques.(v);
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
          Array.iteri
            (fun ci members ->
              ignore ci;
              if not (expired ()) then List.iter probe_var members)
            !clique_members
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
          match row_terms.(r) with
          | [] -> check_row_consistent r "rebuild"
          | terms ->
            reduced_nnz := !reduced_nnz + List.length terms;
            let lhs =
              List.fold_left (fun e (v, c) -> Expr.add_term e c var_map.(v)) Expr.zero terms
            in
            ignore
              (Model.add_constraint ~name:(Model.row_name model r) reduced_model lhs
                 row_rel.(r) row_rhs.(r))
        end
      done;
      let obj' =
        Array.to_seq (Array.init n (fun v -> v))
        |> Seq.fold_left
             (fun e v ->
               if live_var.(v) && not (Float.equal obj_coef.(v) 0.0) then
                 Expr.add_term e obj_coef.(v) var_map.(v)
               else e)
             (Expr.const !obj_const)
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
