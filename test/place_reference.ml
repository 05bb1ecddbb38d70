(* Test oracle for [Placer.anneal]: the list-based annealer it
   replaced, kept verbatim. Every cost evaluation walks the op's
   [Dfg.preds] and [Dfg.succs] lists with closures and measures each
   edge with [Fabric.distance], which builds two coordinate records
   per call. The "oracle" case in test_place_timing.ml pins the array
   kernel to it mapping for mapping. *)

open Agingfp_cgrra
module Rng = Agingfp_util.Rng
module Coord = Agingfp_util.Coord
module Placer = Agingfp_place.Placer

let anneal_context (params : Placer.params) design c assignment =
  let fabric = Design.fabric design in
  let dfg = Design.context design c in
  let n = Dfg.num_ops dfg in
  let npes = Fabric.num_pes fabric in
  if n = 0 then assignment
  else begin
    let rng = Rng.create (params.seed + (c * 7919)) in
    let occupant = Array.make npes (-1) in
    Array.iteri (fun o pe -> occupant.(pe) <- o) assignment;
    let corner_of pe =
      let p = Fabric.coord_of_pe fabric pe in
      float_of_int (p.Coord.x + p.Coord.y)
    in
    (* Incremental cost of the edges incident to one op. *)
    let incident_wire o pe =
      let d q = Fabric.distance fabric pe assignment.(q) in
      let acc = ref 0 in
      List.iter (fun u -> acc := !acc + d u) (Dfg.preds dfg o);
      List.iter (fun v -> acc := !acc + d v) (Dfg.succs dfg o);
      !acc
    in
    let op_cost o pe =
      (params.corner_weight *. corner_of pe)
      +. (params.wire_weight *. float_of_int (incident_wire o pe))
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
              if other < 0 then op_cost o new_pe -. op_cost o old_pe
              else begin
                (* Swap: evaluate both ops in both positions. Edges
                   between o and other are counted symmetrically
                   before and after, so the delta is still exact. *)
                let before = op_cost o old_pe +. op_cost other new_pe in
                assignment.(o) <- new_pe;
                assignment.(other) <- old_pe;
                let after = op_cost o new_pe +. op_cost other old_pe in
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

let anneal ?(params = Placer.default_params) design mapping =
  Mapping.of_arrays
    (Array.init (Design.num_contexts design) (fun c ->
         anneal_context params design c (Mapping.context_array mapping c)))

let aging_unaware ?(params = Placer.default_params) design =
  anneal ~params design (Placer.greedy ~seed:params.seed design)
