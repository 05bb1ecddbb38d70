(* Work-sharing domain pool. One mutex/condition pair guards the whole
   pool; tasks are claimed under the lock but executed outside it, and
   the submitter helps execute its own batch, so nested submission
   cannot deadlock: a waiter only ever blocks on tasks that some other
   thread is actively running. A submitter never runs another batch's
   task: its wait is bounded by its own batch, not by whatever else
   was queued on the pool. *)

type batch = {
  tasks : (int -> unit) array; (* each records its own result by index *)
  mutable next : int;          (* next unclaimed task (under pool mutex) *)
  mutable completed : int;     (* finished tasks (under pool mutex) *)
}

type t = {
  mutex : Mutex.t;
  work : Condition.t;   (* workers: a batch gained unclaimed tasks / stop *)
  settled : Condition.t; (* submitters: some batch made progress *)
  mutable batches : batch list;
  mutable stop : bool;
  (* Lock-free mirror of [stop] for {!request_stop}: signal handlers
     must not take [mutex] (the interrupted thread may hold it), so
     they flip this atomic instead and the drain completes later in
     normal context ({!shutdown}). Workers read it in their wait
     predicate, [stop] proper stays mutex-guarded. *)
  stop_requested : bool Atomic.t;
  mutable workers : unit Domain.t list;
  domains : int;
}

let size t = t.domains

let default_jobs () = Domain.recommended_domain_count ()

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Claim one task from any live batch. Called with the mutex held. *)
let try_claim t =
  let rec scan = function
    | [] -> None
    | b :: rest ->
      if b.next < Array.length b.tasks then begin
        let i = b.next in
        b.next <- i + 1;
        Some (b, i)
      end
      else scan rest
  in
  scan t.batches

(* Execute a claimed task outside the lock, then book completion. *)
let execute t b i =
  b.tasks.(i) i;
  locked t (fun () ->
      b.completed <- b.completed + 1;
      if b.completed = Array.length b.tasks then begin
        t.batches <- List.filter (fun b' -> b' != b) t.batches;
        Condition.broadcast t.settled
      end)

let worker_loop t () =
  let rec loop () =
    let claimed =
      locked t (fun () ->
          let rec wait () =
            match try_claim t with
            | Some _ as c -> c
            | None ->
              if t.stop || Atomic.get t.stop_requested then None
              else begin
                Condition.wait t.work t.mutex;
                wait ()
              end
          in
          wait ())
    in
    match claimed with
    | None -> ()
    | Some (b, i) ->
      execute t b i;
      loop ()
  in
  loop ()

let create ~domains =
  if domains < 1 || domains > 128 then Invariant.invalid ~where:"Pool.create" "domains must be in [1, 128]";
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      batches = [];
      stop = false;
      stop_requested = Atomic.make false;
      workers = [];
      domains;
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (worker_loop t));
  t

(* Async-signal-safe stop request: one atomic store, no locks, no
   allocation. Idle workers are not woken (a reliable wakeup needs the
   mutex-held broadcast below); they observe the flag at their next
   wakeup, and {!shutdown} — called from normal context during the
   drain — delivers the broadcast that makes termination prompt. *)
let request_stop t = Atomic.set t.stop_requested true

(* Join the worker domains. Idempotent and safe to race: whichever
   caller wins the lock takes the worker list, everyone else joins
   nothing. Registry deregistration lives in [shutdown] below, once
   the registry exists. *)
let drain t =
  Atomic.set t.stop_requested true;
  let workers =
    locked t (fun () ->
        let ws = t.workers in
        t.workers <- [];
        t.stop <- true;
        Condition.broadcast t.work;
        ws)
  in
  List.iter Domain.join workers

(* Submit a batch and help execute it until every task has settled. *)
let submit t tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else begin
    let b = { tasks; next = 0; completed = 0 } in
    locked t (fun () ->
        t.batches <- t.batches @ [ b ];
        Condition.broadcast t.work);
    let rec help () =
      let claimed =
        locked t (fun () ->
            let rec wait () =
              if b.completed = Array.length b.tasks then None
              else if b.next < Array.length b.tasks then begin
                let i = b.next in
                b.next <- i + 1;
                Some i
              end
              else begin
                (* All claimed, some still running on other domains. *)
                Condition.wait t.settled t.mutex;
                wait ()
              end
            in
            wait ())
      in
      match claimed with
      | None -> ()
      | Some i ->
        execute t b i;
        help ()
    in
    help ()
  end

(* Shared result plumbing: run [f] over every index, capturing per-task
   exceptions; re-raise the first one (by input index) once settled. *)
let run_indexed t n f =
  let exns = Array.make n None in
  let tasks =
    Array.init n (fun i _ ->
        match f i with
        | () -> ()
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          exns.(i) <- Some (e, bt))
  in
  submit t tasks;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    exns

let map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    run_indexed t n (fun i -> results.(i) <- Some (f xs.(i)));
    Array.map
      (function
        | Some r -> r
        | None -> Invariant.fail ~where:"Pool.map" "task settled without a result (run_indexed re-raises)")
      results
  end

let run t bodies = run_indexed t (Array.length bodies) (fun i -> bodies.(i) ())

(* ---------- memoized process-global pools ---------- *)

let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_mutex = Mutex.create ()
let cleanup_registered = ref false

let effective_jobs jobs = max 1 (min jobs (default_jobs ()))

(* Full drain plus registry deregistration, so a long-running daemon
   can shut pools down and re-[get] fresh ones without the at_exit
   sweep ever walking a dead pool. [drain] and the registry edit take
   their locks strictly in sequence, never nested, so this cannot
   deadlock against [get] or the at_exit sweep. *)
let shutdown t =
  drain t;
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) (fun () ->
      match Hashtbl.find_opt registry t.domains with
      | Some p when p == t -> Hashtbl.remove registry t.domains
      | _ -> ())

let get ?(clamp = true) domains =
  let domains = if clamp then effective_jobs domains else max 1 domains in
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) (fun () ->
      match Hashtbl.find_opt registry domains with
      | Some t when not (t.stop || Atomic.get t.stop_requested) -> t
      | _ ->
        let t = create ~domains in
        Hashtbl.replace registry domains t;
        if not !cleanup_registered then begin
          cleanup_registered := true;
          (* Leaving worker domains blocked on a condition variable at
             process exit is undefined behaviour; drain them. *)
          at_exit (fun () ->
              let pools =
                Mutex.lock registry_mutex;
                Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex)
                  (fun () ->
                    (Hashtbl.fold (fun _ p acc -> p :: acc) registry []
                    [@codelint.allow "det-order"
                      "every registered pool is shut down; drain order is \
                       irrelevant"]))
              in
              List.iter shutdown pools)
        end;
        t)
