(** Cooperative solve budgets: wall-clock deadlines plus operation
    allowances.

    The solver stack (simplex, presolve, branch & bound, the remap
    ladder) has no preemption; every loop instead polls a {!t} at its
    checkpoints — once per simplex pivot, presolve round, B&B node,
    Δ-relaxation attempt — and unwinds cleanly when the budget is
    gone. A budget combines

    - an absolute {e wall-clock deadline} against a monotonic clock
      (never the system time-of-day clock, which can jump), and
    - an optional {e allowance} of abstract operations (LP iterations,
      nodes), spent explicitly by the owner.

    Budgets form a tree: {!slice} and {!with_deadline} derive child
    budgets that can only be stricter than their parent — a child's
    deadline never exceeds the parent's, and allowance spending
    propagates upward — so handing a pipeline stage "its share" of the
    remaining time cannot break the caller's overall bound.

    Every solve entry point reports {e why} it stopped with a
    {!stop_reason}; [Optimal] means the budget was not the binding
    constraint. *)

type t

type stop_reason =
  | Optimal          (** ran to completion; the budget did not bind *)
  | Deadline         (** wall-clock deadline reached *)
  | Node_limit       (** branch & bound node allowance exhausted *)
  | Iteration_limit  (** simplex iteration allowance exhausted *)
  | Fault of string  (** aborted by a solver fault (see {!Agingfp_lp.Faults}) *)

val pp_stop_reason : Format.formatter -> stop_reason -> unit
val stop_reason_to_string : stop_reason -> string

val worst : stop_reason -> stop_reason -> stop_reason
(** The more severe of two reasons ([Fault] > [Deadline] >
    [Iteration_limit] > [Node_limit] > [Optimal]) —
    aggregating many component solves keeps the reason that taints the
    aggregate most. *)

val unlimited : t
(** Never expires. The default for every solver entry point, so
    callers that do not care about deadlines see exactly the old
    behaviour. *)

val create : ?clock:(unit -> int64) -> ?deadline_s:float -> ?allowance:int -> unit -> t
(** [create ~deadline_s ()] starts the clock now. [clock] (monotonic
    nanoseconds; defaults to [CLOCK_MONOTONIC]) exists for tests that
    need a deterministic fake clock. [allowance], when given, is an
    abstract operation budget drained with {!spend}. Omitting both
    limits yields a budget equivalent to {!unlimited}. *)

val slice : t -> fraction:float -> t
(** [slice parent ~fraction] is a child budget whose deadline is [now
    + fraction * remaining parent] (clamped to the parent's own
    deadline). A slice of an unbounded parent is unbounded. The child
    carries no own allowance but spending on it still drains the
    parent's. *)

val with_deadline : t -> deadline_s:float -> t
(** [with_deadline parent ~deadline_s] is a child expiring after
    [deadline_s] seconds from now, or at the parent's deadline,
    whichever comes first. *)

val spend : t -> int -> unit
(** Drain [n] units from this budget's allowance and every ancestor's. *)

val expired : t -> bool
(** True once the deadline has passed or any allowance (own or
    inherited) is exhausted. Cheap enough to poll once per simplex
    iteration. *)

val status : t -> stop_reason
(** [Optimal] while the budget still has room, otherwise the binding
    constraint: [Deadline], or [Iteration_limit] when an allowance ran
    dry. *)

val is_unlimited : t -> bool
(** True when neither this budget nor any ancestor carries a deadline
    or an allowance — checkpoints can skip clock reads entirely. *)

val remaining_s : t -> float
(** Seconds until the effective (own or inherited) deadline;
    [infinity] when unbounded, [0.] once expired. *)

val elapsed_s : t -> float
(** Seconds since this budget was created. *)
