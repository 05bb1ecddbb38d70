(* Test oracle for [Candidates.build]: the list-based builder it
   replaced, kept verbatim. Every operation builds its pool with
   [Fabric.pes_within], [List.sort_uniq] and list filters, and picks
   its nearest and coolest PEs with two stable sorts. The property in
   test_floorplan.ml pins the array kernel to it set for set. *)

open Agingfp_cgrra
module Candidates = Agingfp_floorplan.Candidates
module Paths = Agingfp_floorplan.Paths

type t = {
  sets : int list array array;
  frozen : bool array array;
  radii : int array array;
}

let build ?(budget = Agingfp_util.Budget.unlimited) ?(params = Candidates.default_params) design
    mapping ~frozen ~monitored =
  let fabric = Design.fabric design in
  (* Cooperative deadline checkpointing: candidate generation is
     O(ops * PEs log PEs) and used to be the largest uninterruptible
     unit of a deadline-bounded solve. Once [budget] expires the
     remaining ops get the trivial radius-0 neighbourhood — still a
     valid candidate structure (every op keeps a home), built in
     negligible time; the caller's own expiry checks then descend the
     degradation ladder before these sets are ever solved against. *)
  let expired = ref false in
  let ops_seen = ref 0 in
  let checkpoint () =
    incr ops_seen;
    if (not !expired) && !ops_seen land 7 = 0 && Agingfp_util.Budget.expired budget then
      expired := true
  in
  let baseline_acc = Stress.accumulated design mapping in
  let ncontexts = Design.num_contexts design in
  let sets = Array.init ncontexts (fun c -> Array.make (Dfg.num_ops (Design.context design c)) []) in
  let frozen_flags =
    Array.init ncontexts (fun c -> Array.make (Dfg.num_ops (Design.context design c)) false)
  in
  let radii =
    Array.init ncontexts (fun c ->
        Array.make (Dfg.num_ops (Design.context design c)) params.Candidates.unmonitored_radius)
  in
  let diameter = 2 * (Fabric.dim fabric - 1) in
  for ctx = 0 to ncontexts - 1 do
    let dfg = Design.context design ctx in
    let n = Dfg.num_ops dfg in
    (* Frozen pins. *)
    let frozen_pe = Array.make n (-1) in
    List.iter
      (fun (op, pe) ->
        frozen_pe.(op) <- pe;
        frozen_flags.(ctx).(op) <- true)
      frozen.(ctx);
    let frozen_pes = List.map snd frozen.(ctx) in
    let is_frozen_pe = Array.make (Fabric.num_pes fabric) false in
    List.iter (fun pe -> is_frozen_pe.(pe) <- true) frozen_pes;
    (* Slack-derived radius: an interior op's displacement counts
       twice on a path, so half the path slack bounds its useful
       move; take the min over the monitored paths through the op. *)
    List.iter
      (fun (b : Paths.budgeted) ->
        let s = Paths.slack b in
        let r = max 1 s in
        Array.iter
          (fun op -> radii.(ctx).(op) <- min radii.(ctx).(op) r)
          b.Paths.path.Agingfp_timing.Analysis.nodes)
      monitored.(ctx);
    for op = 0 to n - 1 do
      checkpoint ();
      if frozen_flags.(ctx).(op) then sets.(ctx).(op) <- [ frozen_pe.(op) ]
      else begin
        let orig = Mapping.pe_of mapping ~ctx ~op in
        let r = if !expired then 0 else min radii.(ctx).(op) diameter in
        radii.(ctx).(op) <- r;
        (* When a DFG neighbour is pinned (possibly far away after
           critical-path rotation), the op must be able to follow it,
           or the shared path budgets become unsatisfiable. *)
        let near_pins =
          List.concat_map
            (fun nb ->
              if frozen_flags.(ctx).(nb) then Fabric.pes_within fabric frozen_pe.(nb) 2
              else [])
            (Dfg.preds dfg op @ Dfg.succs dfg op)
        in
        let pool =
          List.sort_uniq Int.compare (Fabric.pes_within fabric orig r @ near_pins)
        in
        let pool = List.filter (fun pe -> not is_frozen_pe.(pe)) pool in
        let pool = List.filter (fun pe -> pe <> orig) pool in
        (* Pin-adjacent PEs are force-included past the cap. *)
        let forced =
          List.sort_uniq Int.compare
            (List.filter (fun pe -> (not is_frozen_pe.(pe)) && pe <> orig) near_pins)
        in
        let pool = List.filter (fun pe -> not (List.mem pe forced)) pool in
        let chosen =
          if params.Candidates.max_candidates <= 0 || List.length pool + 1 <= params.Candidates.max_candidates
          then pool
          else begin
            let k = params.Candidates.max_candidates - 1 in
            let k_near = max 1 (k / 3) in
            let by_dist =
              List.stable_sort
                (fun a b ->
                  Int.compare (Fabric.distance fabric orig a) (Fabric.distance fabric orig b))
                pool
            in
            let rec take n = function
              | [] -> []
              | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
            in
            let near = take k_near by_dist in
            let by_stress =
              List.stable_sort
                (fun a b ->
                  let c = Float.compare baseline_acc.(a) baseline_acc.(b) in
                  if c <> 0 then c
                  else
                    Int.compare (Fabric.distance fabric orig a) (Fabric.distance fabric orig b))
                pool
            in
            let cool = take (k - List.length near) (List.filter (fun pe -> not (List.mem pe near)) by_stress) in
            near @ cool
          end
        in
        let chosen = forced @ chosen in
        let final = if is_frozen_pe.(orig) then chosen else orig :: chosen in
        let final =
          (* A fully-frozen neighbourhood would otherwise leave the op
             homeless; widen to the nearest free PEs of the fabric. *)
          if final <> [] then final
          else begin
            let all_free =
              List.filter
                (fun pe -> not is_frozen_pe.(pe))
                (Fabric.pes_within fabric orig diameter)
            in
            let rec take n = function
              | [] -> []
              | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
            in
            take (max 1 params.Candidates.max_candidates) all_free
          end
        in
        sets.(ctx).(op) <- final
      end
    done
  done;
  { sets; frozen = frozen_flags; radii }

let get t ~ctx ~op = t.sets.(ctx).(op)

let is_frozen t ~ctx ~op = t.frozen.(ctx).(op)

let radius t ~ctx ~op = t.radii.(ctx).(op)
