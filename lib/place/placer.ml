open Agingfp_cgrra
module Rng = Agingfp_util.Rng
module Coord = Agingfp_util.Coord
module Pool = Agingfp_util.Pool

let src = Logs.Src.create "agingfp.place" ~doc:"Baseline placer"

module Log = (val Logs.src_log src : Logs.LOG)

type params = {
  seed : int;
  sa_moves : int;
  start_temp : float;
  cooling : float;
  moves_per_temp : int;
  corner_weight : float;
  wire_weight : float;
}

let default_params =
  {
    seed = 20061;
    sa_moves = 20_000;
    start_temp = 4.0;
    cooling = 0.92;
    moves_per_temp = 200;
    corner_weight = 1.0;
    wire_weight = 2.0;
  }

(* ---------- constructive pass ---------- *)

let greedy ?(seed = 1913) design =
  let fabric = Design.fabric design in
  let npes = Fabric.num_pes fabric in
  Mapping.of_arrays
    (Array.init (Design.num_contexts design) (fun c ->
         let dfg = Design.context design c in
         let rng = Rng.create (seed + (c * 6151)) in
         (* Small per-context tie-breaking noise: real per-context
            netlists never produce pixel-identical layouts, and without
            it every context's critical path stacks on the same corner
            PEs, which no commercial placer exhibits. *)
         let noise = Array.init npes (fun _ -> Rng.int rng 3) in
         let n = Dfg.num_ops dfg in
         let assignment = Array.make n (-1) in
         let free = Array.make npes true in
         let corner_bias pe =
           let p = Fabric.coord_of_pe fabric pe in
           p.Coord.x + p.Coord.y
         in
         Array.iter
           (fun o ->
             let placed_preds =
               List.filter_map
                 (fun u -> if assignment.(u) >= 0 then Some assignment.(u) else None)
                 (Dfg.preds dfg o)
             in
             let score pe =
               let pull =
                 List.fold_left
                   (fun acc q -> acc + Fabric.distance fabric pe q)
                   0 placed_preds
               in
               (* Weight the predecessor pull above the corner bias so
                  connected ops stay adjacent. *)
               (4 * pull) + corner_bias pe + noise.(pe)
             in
             let best = ref (-1) in
             let best_score = ref max_int in
             for pe = 0 to npes - 1 do
               if free.(pe) then begin
                 let s = score pe in
                 if s < !best_score then begin
                   best := pe;
                   best_score := s
                 end
               end
             done;
             assignment.(o) <- !best;
             free.(!best) <- false)
           (Dfg.topological_order dfg);
         assignment))

(* ---------- simulated annealing ---------- *)

(* Cost terms for one context, maintained incrementally:
   - corner compactness: sum over used PEs of (x + y)
   - wirelength: sum over DFG edges of Manhattan length. *)

let context_cost design mapping c =
  let fabric = Design.fabric design in
  let dfg = Design.context design c in
  let corner = ref 0 in
  for o = 0 to Dfg.num_ops dfg - 1 do
    let p = Fabric.coord_of_pe fabric (Mapping.pe_of mapping ~ctx:c ~op:o) in
    corner := !corner + p.Coord.x + p.Coord.y
  done;
  let wire = ref 0 in
  Dfg.iter_edges dfg (fun u v ->
      wire :=
        !wire
        + Fabric.distance fabric
            (Mapping.pe_of mapping ~ctx:c ~op:u)
            (Mapping.pe_of mapping ~ctx:c ~op:v));
  (default_params.corner_weight *. float_of_int !corner)
  +. (default_params.wire_weight *. float_of_int !wire)

(* One op's cost at [pe], given the wirelength of its incident
   edges. Closed and small, so the compiler inlines it at each use and
   the float is never boxed. *)
let[@inline] op_cost params corner pe wire =
  (params.corner_weight *. corner.(pe)) +. (params.wire_weight *. float_of_int wire)

let anneal_context params design c assignment =
  let fabric = Design.fabric design in
  let dfg = Design.context design c in
  let n = Dfg.num_ops dfg in
  let npes = Fabric.num_pes fabric in
  if n = 0 then assignment
  else begin
    let rng = Rng.create (params.seed + (c * 7919)) in
    let occupant = Array.make npes (-1) in
    Array.iteri (fun o pe -> occupant.(pe) <- o) assignment;
    (* Geometry and adjacency are fixed for the whole run, so they are
       laid out once as flat arrays, and a move allocates nothing. *)
    let xs = Array.init npes (fun pe -> (Fabric.coord_of_pe fabric pe).Coord.x) in
    let ys = Array.init npes (fun pe -> (Fabric.coord_of_pe fabric pe).Coord.y) in
    let corner = Array.init npes (fun pe -> float_of_int (xs.(pe) + ys.(pe))) in
    let neighbours =
      Array.init n (fun o -> Array.of_list (Dfg.preds dfg o @ Dfg.succs dfg o))
    in
    (* Manhattan length of the edges incident to op [o] placed at [pe]. *)
    let wire o pe =
      let x = xs.(pe) and y = ys.(pe) in
      let ns = neighbours.(o) in
      let acc = ref 0 in
      for i = 0 to Array.length ns - 1 do
        let q = assignment.(ns.(i)) in
        acc := !acc + abs (x - xs.(q)) + abs (y - ys.(q))
      done;
      !acc
    in
    let temp = ref params.start_temp in
    let moves_done = ref 0 in
    while !moves_done < params.sa_moves do
      for _ = 1 to params.moves_per_temp do
        if !moves_done < params.sa_moves then begin
          incr moves_done;
          let o = Rng.int rng n in
          let old_pe = assignment.(o) in
          let new_pe = Rng.int rng npes in
          if new_pe <> old_pe then begin
            let other = occupant.(new_pe) in
            let delta =
              if other < 0 then
                op_cost params corner new_pe (wire o new_pe)
                -. op_cost params corner old_pe (wire o old_pe)
              else begin
                (* Swap: evaluate both ops in both positions. Edges
                   between o and other are counted symmetrically
                   before and after, so the delta is still exact. *)
                let before =
                  op_cost params corner old_pe (wire o old_pe)
                  +. op_cost params corner new_pe (wire other new_pe)
                in
                assignment.(o) <- new_pe;
                assignment.(other) <- old_pe;
                let after =
                  op_cost params corner new_pe (wire o new_pe)
                  +. op_cost params corner old_pe (wire other old_pe)
                in
                assignment.(o) <- old_pe;
                assignment.(other) <- new_pe;
                after -. before
              end
            in
            let accept =
              delta <= 0.0
              || Rng.float rng 1.0 < exp (-.delta /. !temp)
            in
            if accept then begin
              if other < 0 then begin
                assignment.(o) <- new_pe;
                occupant.(old_pe) <- -1;
                occupant.(new_pe) <- o
              end
              else begin
                assignment.(o) <- new_pe;
                assignment.(other) <- old_pe;
                occupant.(new_pe) <- o;
                occupant.(old_pe) <- other
              end
            end
          end
        end
      done;
      temp := !temp *. params.cooling;
      if !temp < 0.01 then temp := 0.01
    done;
    assignment
  end

let anneal ?(params = default_params) design mapping =
  (* Each context draws from its own seeded generator and owns its
     assignment array, so the contexts run as one batch: spread over
     a second domain when one is free, in order otherwise, with the
     same result either way. *)
  let arrays =
    Pool.map (Pool.get 2)
      (fun c -> anneal_context params design c (Mapping.context_array mapping c))
      (Array.init (Design.num_contexts design) Fun.id)
  in
  let result = Mapping.of_arrays arrays in
  (match Mapping.validate design result with
  | Ok () -> ()
  | Error msg ->
    Agingfp_util.Invariant.fail ~where:"Placer.anneal" "produced invalid mapping: %s"
      msg);
  result

let aging_unaware ?(params = default_params) design =
  let m = anneal ~params design (greedy ~seed:params.seed design) in
  let clock = (Design.chars design).Chars.clock_period_ns in
  let cpd = Agingfp_timing.Analysis.cpd design m in
  if cpd > clock then
    Log.info (fun k ->
        k "%s: baseline CPD %.2f ns exceeds the %.2f ns clock target" (Design.name design)
          cpd clock);
  m
