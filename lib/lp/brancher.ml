(* Branching-variable selection for the tree search: pseudocost
   branching. Per-variable, per-direction averages of observed
   objective degradation per unit of rounded-away fraction. Each
   processed child node contributes one observation (its relaxation
   objective minus its parent's), and shallow nodes seed unreliable
   variables with strong-branching probes (the search solves the probe
   LPs and feeds the deltas back through [observe]); selection scores a
   candidate by the product of its estimated up/down degradations,
   which prefers variables that hurt both children — the splits that
   move the dual bound.

   All state lives in flat arrays indexed by variable, and ties break
   on the variable index so selection is deterministic. *)

(* Observations per direction before a variable's pseudocost is
   trusted without a strong-branching probe. *)
let reliability = 1

type t = {
  down_sum : float array;  (* sum of delta / frac per direction *)
  down_cnt : int array;
  up_sum : float array;
  up_cnt : int array;
}

let create ~nvars =
  {
    down_sum = Array.make nvars 0.0;
    down_cnt = Array.make nvars 0;
    up_sum = Array.make nvars 0.0;
    up_cnt = Array.make nvars 0;
  }

(* Fractional integer variables with their relaxed values, in
   [int_vars] order. *)
let fractional ~integrality_tol int_vars (values : float array) =
  List.filter_map
    (fun v ->
      let x = values.(v) in
      let frac = Float.abs (x -. Float.round x) in
      if frac > integrality_tol then Some (v, x) else None)
    int_vars

let unreliable t ~var =
  t.down_cnt.(var) < reliability || t.up_cnt.(var) < reliability

let observe t ~var ~(dir : Node_store.dir) ~frac ~delta =
  if frac > 1e-12 && Float.is_finite delta then begin
    (* Degradations are non-negative by LP monotonicity; clamp the
       numerical noise of near-equal parent/child objectives. *)
    let unit = Float.max 0.0 delta /. frac in
    match dir with
    | Node_store.Down ->
      t.down_sum.(var) <- t.down_sum.(var) +. unit;
      t.down_cnt.(var) <- t.down_cnt.(var) + 1
    | Node_store.Up ->
      t.up_sum.(var) <- t.up_sum.(var) +. unit;
      t.up_cnt.(var) <- t.up_cnt.(var) + 1
  end

let avg sum cnt var =
  if cnt.(var) = 0 then None else Some (sum.(var) /. float_of_int cnt.(var))

(* Product rule with a small additive floor: a variable whose observed
   degradations are both zero still scores by its fraction, so
   null-objective (pure feasibility) models fall back to
   most-fractional order instead of degenerating to index order. *)
let score t ~var ~value =
  let fdown = value -. Float.of_int (int_of_float (floor value)) in
  let fup = 1.0 -. fdown in
  let est avg_opt frac =
    match avg_opt with None -> frac | Some a -> Float.max (frac *. 1e-6) (a *. frac)
  in
  let down = est (avg t.down_sum t.down_cnt var) fdown in
  let up = est (avg t.up_sum t.up_cnt var) fup in
  (Float.max down 1e-12 *. Float.max up 1e-12) +. (1e-6 *. fdown *. fup)

let select t candidates =
  let best = ref None in
  let best_score = ref neg_infinity in
  List.iter
    (fun (v, x) ->
      let s = score t ~var:v ~value:x in
      if s > !best_score then begin
        best := Some v;
        best_score := s
      end)
    candidates;
  !best
