module Rng = Agingfp_util.Rng

exception Injected of string

type spec = {
  seed : int;
  p_iteration_limit : float;
  p_perturb : float;
  perturb_mag : float;
  p_infeasible : float;
  p_exception : float;
}

let none =
  {
    seed = 0;
    p_iteration_limit = 0.0;
    p_perturb = 0.0;
    perturb_mag = 0.05;
    p_infeasible = 0.0;
    p_exception = 0.0;
  }

type fired = {
  iteration_limits : int;
  perturbations : int;
  infeasibilities : int;
  exceptions : int;
}

let no_fired =
  { iteration_limits = 0; perturbations = 0; infeasibilities = 0; exceptions = 0 }

type injector = { spec : spec; rng : Rng.t; mutable counts : fired }

(* Process-global, and drawn from by every domain solving at once (a
   remap's Freeze and Rotate runs): the stream and the counts are
   guarded by [mutex]. [armed] is the only thing the solver hot path
   reads when injection is off. *)
let state : injector option ref = ref None
let armed = ref false
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let install spec =
  locked (fun () ->
      if spec = none then begin
        state := None;
        armed := false
      end
      else begin
        state := Some { spec; rng = Rng.create spec.seed; counts = no_fired };
        armed := true
      end)

let clear () =
  locked (fun () ->
      state := None;
      armed := false)

let active () = !armed

let fired () = locked (fun () -> match !state with Some i -> i.counts | None -> no_fired)

let with_spec spec f =
  install spec;
  Fun.protect ~finally:clear f

(* A Bernoulli draw only consumes randomness when the probability is
   positive, so enabling one fault class does not shift another
   class's stream. Caller holds the mutex. *)
let draw inj p = p > 0.0 && Rng.float inj.rng 1.0 < p

(* [f] on the installed injector under the mutex; [off] when a racing
   [clear] removed it. Callers test [armed] first. *)
let with_injector ~off f =
  locked (fun () -> match !state with Some inj -> f inj | None -> off)

(* One draw for the fault class of probability [p]; [book] counts it
   when it fires. *)
let fires p book =
  !armed
  && with_injector ~off:false (fun inj ->
         draw inj (p inj.spec)
         &&
         (inj.counts <- book inj.counts;
          true))

let checkpoint ~where =
  if fires (fun s -> s.p_exception) (fun c -> { c with exceptions = c.exceptions + 1 })
  then raise (Injected where)

let spurious_iteration_limit () =
  fires
    (fun s -> s.p_iteration_limit)
    (fun c -> { c with iteration_limits = c.iteration_limits + 1 })

let step_scale () =
  if not !armed then 1.0
  else
    with_injector ~off:1.0 (fun inj ->
        if draw inj inj.spec.p_perturb then begin
          inj.counts <- { inj.counts with perturbations = inj.counts.perturbations + 1 };
          let mag = Rng.float inj.rng inj.spec.perturb_mag in
          if Rng.bool inj.rng then 1.0 +. mag else 1.0 -. mag
        end
        else 1.0)

let forge_infeasible () =
  fires
    (fun s -> s.p_infeasible)
    (fun c -> { c with infeasibilities = c.infeasibilities + 1 })

(* ---------- CLI spec syntax ---------- *)

let to_string s =
  Printf.sprintf "seed=%d,iter=%g,pivot=%g,mag=%g,infeas=%g,raise=%g" s.seed
    s.p_iteration_limit s.p_perturb s.perturb_mag s.p_infeasible s.p_exception

let of_string str =
  let parse_field spec field =
    let field = String.trim field in
    if field = "" then Ok spec
    else
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "bad fault field %S (want key=value)" field)
      | Some i -> (
        let key = String.trim (String.sub field 0 i) in
        let value = String.trim (String.sub field (i + 1) (String.length field - i - 1)) in
        let prob k =
          match float_of_string_opt value with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok (k p)
          | _ -> Error (Printf.sprintf "fault key %s wants a probability in [0,1], got %S" key value)
        in
        match key with
        | "seed" -> (
          match int_of_string_opt value with
          | Some seed -> Ok { spec with seed }
          | None -> Error (Printf.sprintf "fault key seed wants an integer, got %S" value))
        | "mag" -> (
          match float_of_string_opt value with
          | Some m when m >= 0.0 -> Ok { spec with perturb_mag = m }
          | _ -> Error (Printf.sprintf "fault key mag wants a non-negative float, got %S" value))
        | "iter" -> prob (fun p -> { spec with p_iteration_limit = p })
        | "pivot" -> prob (fun p -> { spec with p_perturb = p })
        | "infeas" -> prob (fun p -> { spec with p_infeasible = p })
        | "raise" -> prob (fun p -> { spec with p_exception = p })
        | _ ->
          Error
            (Printf.sprintf "unknown fault key %S (known: seed, iter, pivot, mag, infeas, raise)"
               key))
  in
  List.fold_left
    (fun acc field -> Result.bind acc (fun spec -> parse_field spec field))
    (Ok none)
    (String.split_on_char ',' str)
