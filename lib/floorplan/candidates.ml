open Agingfp_cgrra

type params = { max_candidates : int; unmonitored_radius : int }

let default_params = { max_candidates = 14; unmonitored_radius = 1_000 }

type t = {
  sets : int list array array;
  frozen : bool array array;
  radii : int array array;
}

(* Offer [pe] to [top.(0 .. !n - 1)], which keeps the [count] least
   PEs offered so far under the strict total order [less], in
   increasing order; most offers are turned away by one comparison.
   Every order used here ends in the PE index, so the kept PEs are the
   head of a stable sort of the ascending pool. *)
let offer top n ~count less pe =
  if count > 0 && (!n < count || less pe top.(count - 1)) then begin
    let last = min !n (count - 1) in
    let slot = ref last in
    for i = last - 1 downto 0 do
      if less pe top.(i) then slot := i
    done;
    Array.blit top !slot top (!slot + 1) (last - !slot);
    top.(!slot) <- pe;
    if !n < count then incr n
  end

let build ?(budget = Agingfp_util.Budget.unlimited) ?(params = default_params) design
    mapping ~frozen ~monitored =
  let fabric = Design.fabric design in
  (* Cooperative deadline checkpointing. Once [budget] expires the
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
        Array.make (Dfg.num_ops (Design.context design c)) params.unmonitored_radius)
  in
  let dim = Fabric.dim fabric in
  let npes = Fabric.num_pes fabric in
  let diameter = 2 * (dim - 1) in
  let xs = Array.init npes (fun pe -> pe mod dim) in
  let ys = Array.init npes (fun pe -> pe / dim) in
  (* Per-op work arrays, all indexed by PE: the distance to the op's home,
     and stamp marks for the PEs near a pinned DFG neighbour and for the
     nearest picks. The stamp is bumped per op, so marks never need
     clearing. *)
  let dist = Array.make npes 0 in
  let near = Array.make npes 0 in
  let picked = Array.make npes 0 in
  let stamp = ref 0 in
  let mark_near pin =
    for dy = -2 to 2 do
      let y = ys.(pin) + dy in
      let reach = 2 - abs dy in
      if y >= 0 && y < dim then
        for x = max 0 (xs.(pin) - reach) to min (dim - 1) (xs.(pin) + reach) do
          near.((y * dim) + x) <- !stamp
        done
    done
  in
  let closer a b = dist.(a) < dist.(b) || (dist.(a) = dist.(b) && a < b) in
  let cooler a b =
    let c = Float.compare baseline_acc.(a) baseline_acc.(b) in
    c < 0 || (c = 0 && closer a b)
  in
  (* [pool] holds the op's capped candidates and [forced] its
     pin-adjacent PEs (kept past the cap), both in ascending PE order;
     [nearest] and [coolest] the picks from [pool]. *)
  let pool = Array.make npes 0 in
  let forced = Array.make npes 0 in
  let nearest = Array.make npes 0 in
  let coolest = Array.make npes 0 in
  let is_frozen_pe = Array.make npes false in
  for ctx = 0 to ncontexts - 1 do
    let dfg = Design.context design ctx in
    let n = Dfg.num_ops dfg in
    (* Frozen pins. *)
    let frozen_pe = Array.make n (-1) in
    Array.fill is_frozen_pe 0 npes false;
    List.iter
      (fun (op, pe) ->
        frozen_pe.(op) <- pe;
        frozen_flags.(ctx).(op) <- true;
        is_frozen_pe.(pe) <- true)
      frozen.(ctx);
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
        incr stamp;
        let mark nb = if frozen_flags.(ctx).(nb) then mark_near frozen_pe.(nb) in
        List.iter mark (Dfg.preds dfg op);
        List.iter mark (Dfg.succs dfg op);
        let npool = ref 0 and nforced = ref 0 in
        for pe = 0 to npes - 1 do
          dist.(pe) <- abs (xs.(pe) - xs.(orig)) + abs (ys.(pe) - ys.(orig));
          if is_frozen_pe.(pe) || pe = orig then ()
          else if near.(pe) = !stamp then begin
            forced.(!nforced) <- pe;
            incr nforced
          end
          else if dist.(pe) <= r then begin
            pool.(!npool) <- pe;
            incr npool
          end
        done;
        let final = ref [] in
        let prepend buf len =
          for i = len - 1 downto 0 do
            final := buf.(i) :: !final
          done
        in
        if params.max_candidates <= 0 || !npool + 1 <= params.max_candidates then
          prepend pool !npool
        else begin
          let k = params.max_candidates - 1 in
          let k_near = max 1 (k / 3) in
          (* A cap of 1 leaves no room past the nearest pick; the cool
             picks then take the whole rest of the pool, as they always
             have. *)
          let k_cool = if k >= k_near then k - k_near else !npool in
          let nn = ref 0 and nc = ref 0 in
          for i = 0 to !npool - 1 do
            offer nearest nn ~count:k_near closer pool.(i)
          done;
          for i = 0 to !nn - 1 do
            picked.(nearest.(i)) <- !stamp
          done;
          for i = 0 to !npool - 1 do
            if picked.(pool.(i)) <> !stamp then
              offer coolest nc ~count:k_cool cooler pool.(i)
          done;
          prepend coolest !nc;
          prepend nearest !nn
        end;
        prepend forced !nforced;
        if not is_frozen_pe.(orig) then final := orig :: !final;
        if !final = [] then begin
          (* A fully-frozen neighbourhood would otherwise leave the op
             homeless; widen to the nearest free PEs of the fabric. *)
          let nn = ref 0 in
          for pe = 0 to npes - 1 do
            if not is_frozen_pe.(pe) then
              offer nearest nn ~count:(max 1 params.max_candidates) closer pe
          done;
          prepend nearest !nn
        end;
        sets.(ctx).(op) <- !final
      end
    done
  done;
  { sets; frozen = frozen_flags; radii }

let get t ~ctx ~op = t.sets.(ctx).(op)

let is_frozen t ~ctx ~op = t.frozen.(ctx).(op)

let radius t ~ctx ~op = t.radii.(ctx).(op)
