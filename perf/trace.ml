(* Span recorder for the traced replay. Spans are recorded from the
   benchmark's own code, around calls into each layer's public
   function; they stay in memory and are written out at the end of the
   run. Single-threaded: the replay runs on the main domain. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  design : string;
  start : float;  (** seconds on the monotonic clock *)
  stop : float;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let enabled = ref false
let recorded = ref []
let next_id = ref 1
let stack = ref []

let span ~design name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      recorded := { id; parent; name; design; start; stop = now () } :: !recorded;
      stack := List.tl !stack
    in
    Fun.protect ~finally:finish f
  end

let spans () = List.rev !recorded

(* A span's self time: its duration minus the part of its interval its
   child spans cover (children may overlap, so their union is taken). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let intervals =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max s.start c.start, Float.min s.stop c.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, neg_infinity) intervals
      in
      (s, s.stop -. s.start -. covered))
    spans

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# id parent name design start_s end_s\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d %d %s %s %.9f %.9f\n" s.id s.parent s.name s.design s.start
            s.stop)
        spans)
