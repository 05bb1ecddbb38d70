(* Test oracle for [Refine.improve]: the straightforward implementation
   it replaced, kept verbatim. Every trial rescans all candidates
   through a hashed blacklist, scores each with polymorphic [compare]
   on a boxed pair and re-times the whole design. The property in
   test_floorplan.ml pins the fast pass to it move for move. *)

open Agingfp_cgrra
module Paths = Agingfp_floorplan.Paths
module Analysis = Agingfp_timing.Analysis

type params = { max_moves : int; neighbourhood : int }

let default_params = { max_moves = 400; neighbourhood = 4 }

type stats = { moves_accepted : int; st_before : float; st_after : float }

let improve ?(params = default_params) ?(budget = Agingfp_util.Budget.unlimited) ?initial
    design ~baseline_cpd ~frozen ~monitored mapping =
  let npes = Fabric.num_pes (Design.fabric design) in
  let ncontexts = Design.num_contexts design in
  let arrays = Array.init ncontexts (fun c -> Mapping.context_array mapping c) in
  (* Occupancy and accumulated stress, maintained incrementally; the
     optional initial wear offsets shift the leveling objective. *)
  let occupant = Array.make_matrix ncontexts npes (-1) in
  let acc = match initial with None -> Array.make npes 0.0 | Some w -> Array.copy w in
  for ctx = 0 to ncontexts - 1 do
    Array.iteri
      (fun op pe ->
        occupant.(ctx).(pe) <- op;
        acc.(pe) <- acc.(pe) +. Stress.op_stress design ~ctx ~op)
      arrays.(ctx)
  done;
  let is_frozen = Array.init ncontexts (fun c -> Array.make (Array.length arrays.(c)) false) in
  Array.iteri
    (fun ctx pins -> List.iter (fun (op, _) -> is_frozen.(ctx).(op) <- true) pins)
    frozen;
  (* Which monitored paths run through an op. *)
  let paths_of =
    Array.init ncontexts (fun c -> Array.make (Array.length arrays.(c)) [])
  in
  Array.iteri
    (fun ctx budgeted ->
      List.iter
        (fun (b : Paths.budgeted) ->
          Array.iter
            (fun op -> paths_of.(ctx).(op) <- b :: paths_of.(ctx).(op))
            b.Paths.path.Analysis.nodes)
        budgeted)
    monitored;
  let fabric = Design.fabric design in
  let path_wire ctx (b : Paths.budgeted) =
    let nodes = b.Paths.path.Analysis.nodes in
    let total = ref 0 in
    for i = 0 to Array.length nodes - 2 do
      total :=
        !total
        + Fabric.distance fabric arrays.(ctx).(nodes.(i)) arrays.(ctx).(nodes.(i + 1))
    done;
    !total
  in
  let budgets_ok ctx op =
    List.for_all (fun b -> path_wire ctx b <= b.Paths.wire_budget) paths_of.(ctx).(op)
  in
  let st_before = Array.fold_left max 0.0 acc in
  let blacklist = Hashtbl.create 256 in
  let global_max () = Array.fold_left max 0.0 acc in
  let accepted = ref 0 in
  let continue = ref true in
  (* Each iteration re-runs a full CPD analysis, the dominant cost on
     large designs — so the budget is polled here, once per move. *)
  while
    !continue && !accepted < params.max_moves
    && not (Agingfp_util.Budget.expired budget)
  do
    let cur_max = global_max () in
    (* Hottest PEs first. *)
    let hot =
      List.init npes (fun pe -> pe)
      |> List.filter (fun pe -> acc.(pe) > 0.0)
      |> List.sort (fun a b -> Float.compare acc.(b) acc.(a))
      |> List.filteri (fun i _ -> i < params.neighbourhood)
    in
    (* Best move: (score, ctx, op, from, to). Score is the pair
       (new stress of the touched pair's max, squared-sum delta) —
       strictly smaller is better. *)
    let best = ref None in
    List.iter
      (fun pe ->
        for ctx = 0 to ncontexts - 1 do
          let op = occupant.(ctx).(pe) in
          if op >= 0 && not is_frozen.(ctx).(op) then begin
            let st_op = Stress.op_stress design ~ctx ~op in
            if st_op > 0.0 then
              for q = 0 to npes - 1 do
                if occupant.(ctx).(q) < 0 && not (Hashtbl.mem blacklist (ctx, op, q))
                then begin
                  let new_to = acc.(q) +. st_op in
                  (* The move must not create a new hotspot as bad as
                     the current one. *)
                  if new_to < cur_max -. 1e-12 then begin
                    let ss_delta =
                      (((acc.(pe) -. st_op) ** 2.0) +. (new_to ** 2.0))
                      -. ((acc.(pe) ** 2.0) +. (acc.(q) ** 2.0))
                    in
                    let score = (new_to, ss_delta) in
                    let better =
                      match !best with
                      | None -> ss_delta < -1e-12
                      | Some (bscore, _, _, _, _) -> compare score bscore < 0
                    in
                    if better then best := Some (score, ctx, op, pe, q)
                  end
                end
              done
          end
        done)
      hot;
    match !best with
    | None -> continue := false
    | Some (_, ctx, op, from_pe, to_pe) ->
      let st_op = Stress.op_stress design ~ctx ~op in
      let apply a b =
        arrays.(ctx).(op) <- b;
        occupant.(ctx).(a) <- -1;
        occupant.(ctx).(b) <- op;
        acc.(a) <- acc.(a) -. st_op;
        acc.(b) <- acc.(b) +. st_op
      in
      apply from_pe to_pe;
      let timing_clean =
        budgets_ok ctx op
        &&
        let m = Mapping.of_arrays arrays in
        Analysis.cpd design m <= baseline_cpd +. 1e-9
      in
      if timing_clean then incr accepted
      else begin
        apply to_pe from_pe;
        Hashtbl.replace blacklist (ctx, op, to_pe) ()
      end
  done;
  let result = Mapping.of_arrays arrays in
  (match Mapping.validate design result with
  | Ok () -> ()
  | Error msg ->
    Agingfp_util.Invariant.fail ~where:"Refine.improve" "produced invalid mapping: %s"
      msg);
  ( result,
    { moves_accepted = !accepted; st_before; st_after = Array.fold_left max 0.0 acc } )
