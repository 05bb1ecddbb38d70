(** Fixed-size work-sharing domain pool.

    The solver stack is embarrassingly parallel at three levels —
    branch & bound subtrees, independent per-context ILPs, and the
    Table-I benchmark sweep — and OCaml 5 domains are the unit of
    hardware parallelism. Spawning a domain costs milliseconds, so a
    pool is created once ({!create} or the memoizing {!get}) and
    reused for every batch.

    Submission model: a batch of tasks is pushed to the pool and the
    {e submitting thread participates} in executing it (work sharing).
    This makes nested submission safe — a task running on a pool
    worker may submit another batch to the same pool and will at worst
    execute that batch entirely by itself — and it means a pool of
    size 1 degenerates to plain sequential execution with no
    synchronization surprises.

    Contracts:

    - {e Deterministic result ordering}: results land at the index of
      their input, whatever order tasks were executed in.
    - {e Exception capture}: a raising task does not poison the batch;
      every other task still runs, then the first exception (in input
      order) is re-raised with its original backtrace.
    - {e Budget integration}: {!map_budgeted} checks the budget before
      {e starting} each task; once the budget expires the remaining
      tasks are drained unrun ([None]) and whatever completed is
      returned best-effort. Running tasks are never interrupted — they
      poll the same budget at their own checkpoints.

    Tasks must not share mutable solver state across domains
    (a {!Agingfp_lp.Simplex.state} belongs to one domain at a time);
    give each task its own state, and seed any randomness from an
    explicitly {!Rng.split} generator so runs stay reproducible at a
    fixed pool size. *)

type t

val create : domains:int -> t
(** [create ~domains] makes a pool that executes batches on [domains]
    threads of control in total: the submitter plus [domains - 1]
    spawned worker domains. [domains <= 1] spawns nothing.
    Raises [Invalid_argument] if [domains < 1] or [domains > 128]. *)

val get : ?clamp:bool -> int -> t
(** [get domains] is a process-global memoized pool — the "spawn once,
    reuse everywhere" entry point used by [Remap.params.jobs] and the
    suite driver. Pools obtained this way are shut down automatically
    at exit.

    By default the requested size is clamped to
    {!default_jobs}[ ()]: running more domains than cores
    oversubscribes the scheduler and measured 0.27x on a 1-core host,
    so oversubscription must be asked for explicitly with
    [~clamp:false]. Callers still see their requested batch
    structure — only the number of spawned domains shrinks; {!size}
    reports the effective value. *)

val effective_jobs : int -> int
(** [effective_jobs jobs] is the domain count {!get} would actually
    use: [jobs] clamped to [[1, default_jobs ()]]. Use it for wave
    arithmetic that must match the pool's real parallelism. *)

val size : t -> int
(** Total domains (including the submitter) batches are spread over. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] resolves
    to. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] applies [f] to every element concurrently;
    [(map pool f xs).(i)] is [f xs.(i)]. Re-raises the first (by
    index) captured exception after the whole batch has settled. *)

val map_budgeted :
  t -> budget:Budget.t -> ('a -> 'b) -> 'a array -> 'b option array
(** Like {!map}, but each task start polls [budget]: tasks not yet
    started when it expires are skipped and report [None]. Exceptions
    from tasks that did run are still re-raised. *)

val run : t -> (unit -> unit) array -> unit
(** [run pool bodies] executes every body concurrently and returns
    when all have finished — the building block for worker-loop
    parallelism (the serve daemon runs one request loop per domain).
    Exception policy as {!map}. *)

val request_stop : t -> unit
(** Async-signal-safe stop request: a single atomic store, no locks,
    no allocation — the one {!t} operation a signal handler may call.
    Marks the pool as stopping (idle workers notice at their next
    wakeup, {!get} stops handing the pool out); the actual drain must
    still be performed by {!shutdown} from normal context. *)

val shutdown : t -> unit
(** Join the worker domains and, for pools obtained through {!get},
    drop them from the process-global registry so a later {!get}
    builds a fresh pool and the at-exit sweep never walks a dead one.
    Idempotent, and safe to call concurrently from several threads
    (whoever wins joins the workers; everyone else is a no-op).
    Submitting to a shut-down pool executes sequentially on the
    caller. *)
