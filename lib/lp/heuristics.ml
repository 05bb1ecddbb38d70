(* Root-node primal heuristics: diving and the Fischetti–Glover–Lodi
   feasibility pump. Both run on the SAME warm simplex state the tree
   search will use — the whole point is to hand branch & bound an
   incumbent before node 1, so every node from the first bound
   comparison on can prune against it.

   Contract with the caller: the state is borrowed. Diving saves and
   restores every variable bound it fixes; the pump overrides the
   objective through {!Simplex.set_cost} and restores it with
   {!Simplex.reset_cost}. The basis is left wherever the last LP
   finished — callers re-optimize anyway. Candidate incumbents are
   only reported after passing {!Model.check_feasible} on the
   presolved model, so a heuristic bug can degrade into "found
   nothing", never into an infeasible incumbent. *)

module Budget = Agingfp_util.Budget

(* LP re-solve cap for one dive, pump rounding/solve alternations, and
   the share of the solve budget the caller slices off for the whole
   heuristic phase. *)
let max_dive_lps = 200
let pump_max_iters = 60
let budget_fraction = 0.25

type outcome = { values : float array; objective : float; source : string }
type result = { found : outcome list; lps : int }

let round_check ~model ~obj_expr ~int_vars ~source values =
  let values = Array.copy values in
  List.iter (fun v -> values.(v) <- Float.round values.(v)) int_vars;
  match Model.check_feasible model (fun v -> values.(v)) with
  | Ok () ->
    Some { values; objective = Expr.eval (fun v -> values.(v)) obj_expr; source }
  | Error _ -> None

(* Least-fractional candidate: the variable closest to integrality is
   fixed first — propagation stays cheap and the dive rarely needs the
   opposite-rounding retry. Deterministic tie-break on the index. *)
let pick_fractional ~int_vars (sol : Simplex.solution) =
  let bestv = ref (-1) in
  let bestd = ref infinity in
  List.iter
    (fun v ->
      let x = sol.Simplex.values.(v) in
      let d = abs_float (x -. Float.round x) in
      if d > 1e-6 && (d < !bestd -. 1e-12 || (d < !bestd +. 1e-12 && (!bestv < 0 || v < !bestv)))
      then begin
        bestv := v;
        bestd := d
      end)
    int_vars;
  if !bestv < 0 then None else Some (!bestv, sol.Simplex.values.(!bestv))

let dive ~model ~obj_expr ~st ~int_vars ~budget ~relaxed =
  let saved = ref [] in
  let lps = ref 0 in
  let outcome = ref None in
  let rec step (sol : Simplex.solution) =
    if Budget.expired budget || !lps >= max_dive_lps then ()
    else
      match pick_fractional ~int_vars sol with
      | None ->
        outcome := round_check ~model ~obj_expr ~int_vars ~source:"diving" sol.Simplex.values
      | Some (v, x) ->
        let lb0, ub0 = Simplex.column_bounds st v in
        let lo = ceil (lb0 -. 1e-9) and hi = floor (ub0 +. 1e-9) in
        if lo > hi then ()
        else begin
          saved := (v, lb0, ub0) :: !saved;
          let r = Float.max lo (Float.min hi (Float.round x)) in
          Simplex.set_var_bounds st v ~lb:r ~ub:r;
          incr lps;
          match Simplex.reoptimize st with
          | Simplex.Optimal sol' -> step sol'
          | _ ->
            (* Fixing toward the rounding failed: one retry on the
               other integer neighbour, then give up on this dive. *)
            let alt = if r -. x > 0.0 then r -. 1.0 else r +. 1.0 in
            if
              alt >= lo -. 1e-9
              && alt <= hi +. 1e-9
              && !lps < max_dive_lps
              && not (Budget.expired budget)
            then begin
              Simplex.set_var_bounds st v ~lb:alt ~ub:alt;
              incr lps;
              match Simplex.reoptimize st with
              | Simplex.Optimal sol' -> step sol'
              | _ -> ()
            end
        end
  in
  step relaxed;
  List.iter (fun (v, lb, ub) -> Simplex.set_var_bounds st v ~lb ~ub) !saved;
  (!outcome, !lps)

(* Feasibility pump: alternate an L1-distance LP with rounding. The
   distance objective to the rounded target x̃ over integer variables
   at their bounds is linear — +1 when x̃ sits at the lower bound,
   −1 at the upper (constants dropped); targets strictly inside their
   range contribute nothing. Cycles are broken by flipping the
   integers that disagree most with the LP point, a deterministic
   stand-in for the classic randomized perturbation. *)
let pump ~model ~obj_expr ~st ~int_vars ~budget ~(relaxed : Simplex.solution) =
  let lps = ref 0 in
  let outcome = ref None in
  let xt = Array.copy relaxed.Simplex.values in
  List.iter (fun v -> xt.(v) <- Float.round xt.(v)) int_vars;
  let clamp v =
    let lb, ub = Simplex.column_bounds st v in
    xt.(v) <- Float.max lb (Float.min ub xt.(v))
  in
  List.iter clamp int_vars;
  (* The rounded targets visited so far, keyed by their integer values
     in [int_vars] order, 8 bytes each: equal keys are equal targets,
     and the table hashes every byte. *)
  let seen = Hashtbl.create 32 in
  let nint = List.length int_vars in
  let key () =
    let b = Bytes.create (8 * nint) in
    List.iteri
      (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int (int_of_float xt.(v))))
      int_vars;
    Bytes.unsafe_to_string b
  in
  (* The initial rounding may already be feasible (the paper's null
     objective makes this common) — check before pumping. *)
  let direct = Array.copy relaxed.Simplex.values in
  List.iter (fun v -> direct.(v) <- xt.(v)) int_vars;
  (match Model.check_feasible model (fun v -> direct.(v)) with
  | Ok () ->
    outcome :=
      Some
        { values = direct; objective = Expr.eval (fun v -> direct.(v)) obj_expr; source = "pump" }
  | Error _ -> ());
  let rec iterate it =
    if !outcome <> None || it >= pump_max_iters || Budget.expired budget then ()
    else begin
      let cost =
        List.filter_map
          (fun v ->
            let lb, ub = Simplex.column_bounds st v in
            let t = xt.(v) in
            if t <= lb +. 1e-9 then Some (v, 1.0)
            else if t >= ub -. 1e-9 then Some (v, -1.0)
            else None)
          int_vars
      in
      Simplex.set_cost st cost;
      incr lps;
      match Simplex.reoptimize st with
      | Simplex.Optimal sol ->
        let dist =
          List.fold_left
            (fun acc v ->
              acc +. abs_float (sol.Simplex.values.(v) -. Float.round sol.Simplex.values.(v)))
            0.0 int_vars
        in
        if dist < 1e-6 then
          outcome := round_check ~model ~obj_expr ~int_vars ~source:"pump" sol.Simplex.values
        else begin
          List.iter (fun v -> xt.(v) <- Float.round sol.Simplex.values.(v)) int_vars;
          List.iter clamp int_vars;
          let k = key () in
          if Hashtbl.mem seen k then begin
            (* Cycle: flip the (2 + it mod 5) integers furthest from
               their rounded value, deterministically. *)
            let scored =
              List.map (fun v -> (abs_float (sol.Simplex.values.(v) -. xt.(v)), v)) int_vars
            in
            let scored =
              List.sort
                (fun (d1, v1) (d2, v2) ->
                  match Float.compare d2 d1 with 0 -> compare v1 v2 | c -> c)
                scored
            in
            let nflip = 2 + (it mod 5) in
            List.iteri
              (fun i (_, v) ->
                if i < nflip then begin
                  let lb, ub = Simplex.column_bounds st v in
                  let flipped =
                    if sol.Simplex.values.(v) > xt.(v) then xt.(v) +. 1.0 else xt.(v) -. 1.0
                  in
                  if flipped >= lb -. 1e-9 && flipped <= ub +. 1e-9 then xt.(v) <- flipped
                end)
              scored
          end
          else Hashtbl.add seen k ();
          iterate (it + 1)
        end
      | _ -> ()
    end
  in
  iterate 0;
  Simplex.reset_cost st;
  (!outcome, !lps)

let run ~model ~st ~int_vars ~budget ~relaxed =
  let _, obj_expr = Model.objective model in
  let found = ref [] in
  let lps = ref 0 in
  if not (Budget.expired budget) then begin
    let o, k = dive ~model ~obj_expr ~st ~int_vars ~budget ~relaxed in
    lps := !lps + k;
    match o with Some o -> found := o :: !found | None -> ()
  end;
  if not (Budget.expired budget) then begin
    let o, k = pump ~model ~obj_expr ~st ~int_vars ~budget ~relaxed in
    lps := !lps + k;
    match o with Some o -> found := o :: !found | None -> ()
  end;
  { found = List.rev !found; lps = !lps }
