type stop_reason =
  | Optimal
  | Deadline
  | Node_limit
  | Iteration_limit
  | Fault of string

let stop_reason_to_string = function
  | Optimal -> "optimal"
  | Deadline -> "deadline"
  | Node_limit -> "node-limit"
  | Iteration_limit -> "iteration-limit"
  | Fault msg -> "fault: " ^ msg

let pp_stop_reason ppf r = Format.pp_print_string ppf (stop_reason_to_string r)

let severity = function
  | Optimal -> 0
  | Node_limit -> 1
  | Iteration_limit -> 2
  | Deadline -> 3
  | Fault _ -> 4

let worst a b = if severity b > severity a then b else a

(* Domain safety: the deadline is immutable after creation and the
   clock is monotonic, so [expired]/[remaining_s] may be polled from
   any domain; the allowance is atomic so parallel workers spending on
   a shared budget never lose updates. *)
type t = {
  clock : unit -> int64;
  created_ns : int64;
  deadline_ns : int64 option;  (* absolute, on [clock]'s timeline *)
  allowance : int Atomic.t option;
  parent : t option;
}

(* CLOCK_MONOTONIC via bechamel's no-alloc stub; Unix.gettimeofday is
   wall time and can jump under NTP, which would turn deadlines into
   lies exactly when the machine is under load. *)
let monotonic_now () = Monotonic_clock.now ()

let unlimited =
  {
    clock = monotonic_now;
    created_ns = 0L;
    deadline_ns = None;
    allowance = None;
    parent = None;
  }

let create ?(clock = monotonic_now) ?deadline_s ?allowance () =
  let now = clock () in
  let deadline_ns =
    match deadline_s with
    | None -> None
    | Some s ->
      if s < 0.0 then Invariant.invalid ~where:"Budget.create" "negative deadline";
      Some (Int64.add now (Int64.of_float (s *. 1e9)))
  in
  { clock; created_ns = now; deadline_ns; allowance = Option.map Atomic.make allowance;
    parent = None }

let min_deadline a b =
  match (a, b) with
  | None, d | d, None -> d
  | Some x, Some y -> Some (if Int64.compare x y <= 0 then x else y)

(* The effective deadline is the tightest along the ancestor chain;
   children are built with it pre-folded so [expired] never walks the
   chain for the clock check. *)
let effective_deadline t = t.deadline_ns

let with_deadline parent ~deadline_s =
  if deadline_s < 0.0 then Invariant.invalid ~where:"Budget.with_deadline" "negative deadline";
  let now = parent.clock () in
  let own = Int64.add now (Int64.of_float (deadline_s *. 1e9)) in
  {
    clock = parent.clock;
    created_ns = now;
    deadline_ns = min_deadline (Some own) (effective_deadline parent);
    allowance = None;
    parent = Some parent;
  }

let slice parent ~fraction =
  if fraction <= 0.0 then Invariant.invalid ~where:"Budget.slice" "fraction must be positive";
  match effective_deadline parent with
  | None ->
    { clock = parent.clock;
      created_ns = parent.clock ();
      deadline_ns = None;
      allowance = None;
      parent = Some parent;
    }
  | Some dl ->
    let now = parent.clock () in
    let remaining = Int64.to_float (Int64.sub dl now) in
    let own =
      if remaining <= 0.0 then now
      else Int64.add now (Int64.of_float (fraction *. remaining))
    in
    {
      clock = parent.clock;
      created_ns = now;
      deadline_ns = min_deadline (Some own) (Some dl);
      allowance = None;
      parent = Some parent;
    }

let rec spend t n =
  (match t.allowance with
  | Some a -> ignore (Atomic.fetch_and_add a (-n))
  | None -> ());
  match t.parent with Some p -> spend p n | None -> ()

let rec allowance_dry t =
  (match t.allowance with Some a -> Atomic.get a <= 0 | None -> false)
  || (match t.parent with Some p -> allowance_dry p | None -> false)

let rec has_allowance t =
  t.allowance <> None
  || (match t.parent with Some p -> has_allowance p | None -> false)

let deadline_passed t =
  match t.deadline_ns with
  | None -> false
  | Some dl -> Int64.compare (t.clock ()) dl >= 0

let expired t = allowance_dry t || deadline_passed t

let status t =
  if allowance_dry t then Iteration_limit
  else if deadline_passed t then Deadline
  else Optimal

let is_unlimited t = t.deadline_ns = None && not (has_allowance t)

let remaining_s t =
  match t.deadline_ns with
  | None -> infinity
  | Some dl -> max 0.0 (Int64.to_float (Int64.sub dl (t.clock ())) *. 1e-9)

let elapsed_s t = Int64.to_float (Int64.sub (t.clock ()) t.created_ns) *. 1e-9
