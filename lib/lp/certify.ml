module Rat = Agingfp_util.Rat

type verdict = Certified | Rejected of string list | Unsupported of string

let q = Rat.of_float

let pp_verdict ppf = function
  | Certified -> Format.pp_print_string ppf "certified"
  | Rejected msgs ->
    Format.fprintf ppf "rejected (%d violation%s): %s" (List.length msgs)
      (if List.length msgs = 1 then "" else "s")
      (String.concat "; " msgs)
  | Unsupported msg -> Format.fprintf ppf "unsupported: %s" msg

let vname m v =
  match Model.var_name m v with "" -> Printf.sprintf "x%d" v | s -> s

let rname m r =
  match Model.row_name m r with "" -> Printf.sprintf "c%d" r | s -> s

let rel_label = function Model.Le -> "<=" | Model.Ge -> ">=" | Model.Eq -> "="

let solution ?(tol = 1e-6) ?(relaxation = false) model (sol : Simplex.solution) =
  let n = Model.num_vars model in
  if Array.length sol.values < n then
    Rejected
      [
        Printf.sprintf "solution has %d values but the model has %d variables"
          (Array.length sol.values) n;
      ]
  else begin
    let tolq = q tol in
    let viols = ref [] in
    let add msg = viols := msg :: !viols in
    let finite = Array.make n true in
    (* Variable box and integrality. *)
    for v = 0 to n - 1 do
      let x = sol.values.(v) in
      if not (Float.is_finite x) then begin
        finite.(v) <- false;
        add (Printf.sprintf "var `%s` = %g is not finite" (vname model v) x)
      end
    done;
    for v = 0 to n - 1 do
      if finite.(v) then begin
        let x = sol.values.(v) in
        let xq = q x in
        let lb = Model.var_lb model v and ub = Model.var_ub model v in
        if Float.is_nan lb || Float.is_nan ub then
          add (Printf.sprintf "var `%s` has a NaN bound" (vname model v))
        else begin
          if Float.is_finite lb && Rat.compare xq (Rat.sub (q lb) tolq) < 0 then
            add
              (Printf.sprintf "var `%s` = %.17g violates lower bound %.17g"
                 (vname model v) x lb);
          if Float.is_finite ub && Rat.compare xq (Rat.add (q ub) tolq) > 0 then
            add
              (Printf.sprintf "var `%s` = %.17g violates upper bound %.17g"
                 (vname model v) x ub)
        end;
        if (not relaxation) && Model.var_kind model v = Model.Integer then begin
          let r = Float.round x in
          if Rat.compare (Rat.abs (Rat.sub xq (q r))) tolq > 0 then
            add
              (Printf.sprintf "integer var `%s` = %.17g is fractional"
                 (vname model v) x)
        end
      end
    done;
    (* Constraint rows, residuals computed exactly. *)
    Model.iter_constraints model (fun r lhs rel rhs ->
        let terms = Expr.terms lhs in
        if List.for_all (fun (v, _) -> v >= n || finite.(v)) terms then begin
          let lhsq =
            List.fold_left
              (fun acc (v, c) -> Rat.add acc (Rat.mul (q c) (q sol.values.(v))))
              (q (Expr.constant lhs)) terms
          in
          let rhsq = q rhs in
          let ok =
            match rel with
            | Model.Le -> Rat.compare lhsq (Rat.add rhsq tolq) <= 0
            | Model.Ge -> Rat.compare lhsq (Rat.sub rhsq tolq) >= 0
            | Model.Eq ->
              Rat.compare (Rat.abs (Rat.sub lhsq rhsq)) tolq <= 0
          in
          if not ok then
            add
              (Printf.sprintf
                 "row `%s`: exact lhs %s violates %s %.17g (residual %.3g)"
                 (rname model r) (Rat.to_string lhsq) (rel_label rel) rhs
                 (Rat.to_float (Rat.sub lhsq rhsq)))
        end);
    (* Objective agreement. *)
    let _, obj = Model.objective model in
    let obj_terms = Expr.terms obj in
    if
      Float.is_finite sol.objective
      && List.for_all (fun (v, _) -> v < n && finite.(v)) obj_terms
    then begin
      let objq =
        List.fold_left
          (fun acc (v, c) -> Rat.add acc (Rat.mul (q c) (q sol.values.(v))))
          (q (Expr.constant obj)) obj_terms
      in
      let slack = Rat.mul tolq (Rat.max Rat.one (Rat.abs objq)) in
      if Rat.compare (Rat.abs (Rat.sub objq (q sol.objective))) slack > 0 then
        add
          (Printf.sprintf
             "reported objective %.17g disagrees with exact re-evaluation %s"
             sol.objective (Rat.to_string objq))
    end
    else if not (Float.is_finite sol.objective) then
      add (Printf.sprintf "reported objective %g is not finite" sol.objective);
    match List.rev !viols with [] -> Certified | vs -> Rejected vs
  end

(* Exact activity range of [terms] over the variable box; [None] means
   unbounded in that direction (or a NaN bound made it unknowable). *)
let exact_activity model terms =
  let lo = ref (Some Rat.zero) and hi = ref (Some Rat.zero) in
  let push acc cq bound =
    match !acc with
    | None -> ()
    | Some a ->
      if Float.is_finite bound then acc := Some (Rat.add a (Rat.mul cq (q bound)))
      else acc := None
  in
  List.iter
    (fun (v, c) ->
      let lb = Model.var_lb model v and ub = Model.var_ub model v in
      let cq = q c in
      if c > 0.0 then begin
        push lo cq lb;
        push hi cq ub
      end
      else begin
        push lo cq ub;
        push hi cq lb
      end)
    terms;
  (!lo, !hi)

let find_bound_certificate model =
  let found = ref None in
  (try
     Model.iter_constraints model (fun r lhs rel rhs ->
         let lo, hi = exact_activity model (Expr.terms lhs) in
         let rhsq = q rhs in
         let above_lo =
           match lo with Some l -> Rat.compare l rhsq > 0 | None -> false
         in
         let below_hi =
           match hi with Some h -> Rat.compare h rhsq < 0 | None -> false
         in
         let infeasible =
           match rel with
           | Model.Le -> above_lo
           | Model.Ge -> below_hi
           | Model.Eq -> above_lo || below_hi
         in
         if infeasible then begin
           found := Some r;
           raise Exit
         end)
   with Exit -> ());
  !found

let farkas model y =
  let m = Model.num_constraints model in
  if Array.length y <> m then
    Rejected
      [
        Printf.sprintf "certificate has %d multipliers but the model has %d rows"
          (Array.length y) m;
      ]
  else begin
    let viols = ref [] in
    let add msg = viols := msg :: !viols in
    Array.iteri
      (fun i yi -> if not (Float.is_finite yi) then
          add (Printf.sprintf "multiplier y_%d = %g is not finite" i yi))
      y;
    if !viols <> [] then Rejected (List.rev !viols)
    else begin
      (* Sign conditions: multiplying [a.x <= b] by y >= 0 (resp.
         [>=] by y <= 0) preserves [<=], so the aggregation below is a
         valid inequality for every feasible point. *)
      let beta = ref Rat.zero in
      let coefs : (int, Rat.t) Hashtbl.t = Hashtbl.create 64 in
      Model.iter_constraints model (fun i lhs rel rhs ->
          let yi = y.(i) in
          if not (Float.equal yi 0.0) then begin
            (match rel with
            | Model.Le when yi < 0.0 ->
              add (Printf.sprintf "y_%d = %g < 0 on a <= row" i yi)
            | Model.Ge when yi > 0.0 ->
              add (Printf.sprintf "y_%d = %g > 0 on a >= row" i yi)
            | _ -> ());
            let yq = q yi in
            beta := Rat.add !beta (Rat.mul yq (q rhs));
            List.iter
              (fun (v, c) ->
                let prev =
                  match Hashtbl.find_opt coefs v with
                  | Some r -> r
                  | None -> Rat.zero
                in
                Hashtbl.replace coefs v (Rat.add prev (Rat.mul yq (q c))))
              (Expr.terms lhs)
          end);
      if !viols <> [] then Rejected (List.rev !viols)
      else begin
        (* Exact infimum of the aggregated row over the variable box. *)
        let inf = ref (Some Rat.zero) in
        (Hashtbl.iter
           (fun v cq ->
             if Rat.sign cq <> 0 then begin
               let bound =
                 if Rat.sign cq > 0 then Model.var_lb model v
                 else Model.var_ub model v
               in
               match !inf with
               | None -> ()
               | Some a ->
                 if Float.is_finite bound then
                   inf := Some (Rat.add a (Rat.mul cq (q bound)))
                 else inf := None
             end)
           coefs
         [@codelint.allow "det-order"
           "exact rational accumulation: Rat.add is associative-commutative, \
            so bucket order cannot change the infimum"]);
        match !inf with
        | None ->
          Rejected
            [ "aggregated row is unbounded below over the variable box" ]
        | Some infq ->
          if Rat.compare infq !beta > 0 then Certified
          else
            Rejected
              [
                Printf.sprintf
                  "aggregated inequality is satisfiable: infimum %s <= rhs %s"
                  (Rat.to_string infq) (Rat.to_string !beta);
              ]
      end
    end
  end

let result ?tol model = function
  | Milp.Feasible sol -> solution ?tol model sol
  | Milp.Infeasible -> (
    match find_bound_certificate model with
    | Some _ -> Certified
    | None ->
      Unsupported
        "infeasible verdict carries no certificate and no single row is \
         bound-infeasible")
  | Milp.Unknown -> Unsupported "solver returned unknown (budget exhausted)"
