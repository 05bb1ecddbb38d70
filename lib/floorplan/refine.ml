open Agingfp_cgrra
module Analysis = Agingfp_timing.Analysis

type params = { max_moves : int; neighbourhood : int }

let default_params = { max_moves = 400; neighbourhood = 4 }

type stats = { moves_accepted : int; trials : int; st_before : float; st_after : float }

(* [Stdlib.max] at type float: the same value, sign of zero included. *)
let fmax (a : float) b = if a >= b then a else b

(* Inserts [pe] into [hot], whose first [!len] slots hold the hottest
   PEs so far in descending stress. It lands after every PE at least
   as hot, which is a stable descending sort's order: the lower index
   first on ties. *)
let insert_hot hot len acc pe =
  let k = Array.length hot in
  if k > 0 && (!len < k || Float.compare acc.(hot.(k - 1)) acc.(pe) < 0) then begin
    let rec slot i =
      if i < !len && Float.compare acc.(hot.(i)) acc.(pe) >= 0 then slot (i + 1) else i
    in
    let i = slot 0 in
    Array.blit hot i hot (i + 1) (min !len (k - 1) - i);
    hot.(i) <- pe;
    len := min (!len + 1) k
  end

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
  (* Rejected moves, one bit per (op, to-PE) pair of each context. *)
  let blacklist =
    Array.init ncontexts (fun c ->
        Bytes.make (((Array.length arrays.(c) * npes) + 7) / 8) '\000')
  in
  let blacklisted bits i =
    Char.code (Bytes.get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0
  in
  let blacklist_add ctx op q =
    let i = (op * npes) + q in
    let bits = blacklist.(ctx) in
    Bytes.set bits (i lsr 3)
      (Char.chr (Char.code (Bytes.get bits (i lsr 3)) lor (1 lsl (i land 7))))
  in
  (* Each context's CPD, computed on the first trial. A move changes
     one context, so a trial re-times only that one; the design CPD is
     the max over contexts, folded in the same order as
     [Analysis.cpd]. *)
  let context_cpds =
    lazy
      (let m = Mapping.of_arrays arrays in
       Array.init ncontexts (fun c -> Analysis.context_cpd design m c))
  in
  let st_before = Array.fold_left fmax 0.0 acc in
  let hot = Array.make (max 0 params.neighbourhood) 0 in
  let nhot = ref 0 in
  let accepted = ref 0 in
  let trials = ref 0 in
  let continue = ref true in
  (* The budget is polled here, once per move. *)
  while
    !continue && !accepted < params.max_moves
    && not (Agingfp_util.Budget.expired budget)
  do
    (* The current max stress, and the hottest PEs first. *)
    let cur_max = ref 0.0 in
    nhot := 0;
    for pe = 0 to npes - 1 do
      cur_max := fmax !cur_max acc.(pe);
      if acc.(pe) > 0.0 then insert_hot hot nhot acc pe
    done;
    let threshold = !cur_max -. 1e-12 in
    (* Best move so far: its score is the pair (new stress of the
       destination, squared-sum delta), and strictly smaller in
       lexicographic order is better. A candidate whose new stress is
       above the best's cannot win, so its delta is never computed. *)
    let found = ref false in
    let b_new_to = ref 0.0 and b_ss = ref 0.0 in
    let b_ctx = ref 0 and b_op = ref 0 and b_from = ref 0 and b_to = ref 0 in
    for h = 0 to !nhot - 1 do
      let pe = hot.(h) in
      for ctx = 0 to ncontexts - 1 do
        let op = occupant.(ctx).(pe) in
        if op >= 0 && not is_frozen.(ctx).(op) then begin
          let st_op = Stress.op_stress design ~ctx ~op in
          if st_op > 0.0 then begin
            let occ = occupant.(ctx) and bits = blacklist.(ctx) and row = op * npes in
            (* The delta depends on q only through acc.(q): free PEs
               with bit-identical stress share the last one computed. *)
            let memo = ref false and memo_acc = ref 0.0 and memo_ss = ref 0.0 in
            for q = 0 to npes - 1 do
              if occ.(q) < 0 && not (blacklisted bits (row + q)) then begin
                let acc_q = acc.(q) in
                let new_to = acc_q +. st_op in
                (* The move must not create a new hotspot as bad as
                   the current one. *)
                if
                  new_to < threshold
                  && ((not !found) || Float.compare new_to !b_new_to <= 0)
                then begin
                  let ss_delta =
                    if !memo && Int64.bits_of_float acc_q = Int64.bits_of_float !memo_acc
                    then !memo_ss
                    else begin
                      let d =
                        (((acc.(pe) -. st_op) ** 2.0) +. (new_to ** 2.0))
                        -. ((acc.(pe) ** 2.0) +. (acc_q ** 2.0))
                      in
                      memo := true;
                      memo_acc := acc_q;
                      memo_ss := d;
                      d
                    end
                  in
                  let better =
                    if not !found then ss_delta < -1e-12
                    else
                      let c = Float.compare new_to !b_new_to in
                      c < 0 || (c = 0 && Float.compare ss_delta !b_ss < 0)
                  in
                  if better then begin
                    found := true;
                    b_new_to := new_to;
                    b_ss := ss_delta;
                    b_ctx := ctx;
                    b_op := op;
                    b_from := pe;
                    b_to := q
                  end
                end
              end
            done
          end
        end
      done
    done;
    if not !found then continue := false
    else begin
      let ctx = !b_ctx and op = !b_op and from_pe = !b_from and to_pe = !b_to in
      let st_op = Stress.op_stress design ~ctx ~op in
      let apply a b =
        arrays.(ctx).(op) <- b;
        occupant.(ctx).(a) <- -1;
        occupant.(ctx).(b) <- op;
        acc.(a) <- acc.(a) -. st_op;
        acc.(b) <- acc.(b) +. st_op
      in
      let cpds = Lazy.force context_cpds in
      incr trials;
      apply from_pe to_pe;
      let timing_clean =
        budgets_ok ctx op
        &&
        let before = cpds.(ctx) in
        cpds.(ctx) <- Analysis.context_cpd design (Mapping.of_arrays arrays) ctx;
        let ok = Array.fold_left fmax 0.0 cpds <= baseline_cpd +. 1e-9 in
        if not ok then cpds.(ctx) <- before;
        ok
      in
      if timing_clean then incr accepted
      else begin
        apply to_pe from_pe;
        blacklist_add ctx op to_pe
      end
    end
  done;
  let result = Mapping.of_arrays arrays in
  (match Mapping.validate design result with
  | Ok () -> ()
  | Error msg ->
    Agingfp_util.Invariant.fail ~where:"Refine.improve" "produced invalid mapping: %s"
      msg);
  ( result,
    {
      moves_accepted = !accepted;
      trials = !trials;
      st_before;
      st_after = Array.fold_left fmax 0.0 acc;
    } )
