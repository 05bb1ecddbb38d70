(* The remap daemon: `agingfp serve`.

   Architecture (DESIGN.md §15): one acceptor thread owns the listen
   socket and does nothing but admit connections into a bounded queue
   (so a slow or hostile client can never stall admission); a fixed
   set of worker loops — run as one long-lived [Pool] batch, so the
   submitting thread itself is one of the workers — pop connections
   and do the read/parse/solve/respond work; a self-pipe plus an
   atomic stop flag implement the SIGTERM/SIGINT drain. Robustness
   contract: every response that carries a floorplan passed the
   independent {!Audit}; everything else is a structured error with
   the right status code; the daemon itself survives any client input
   and any injected fault ({!Inject}). *)

open Agingfp_cgrra
module Remap = Agingfp_floorplan.Remap
module Audit = Agingfp_floorplan.Audit
module Rotation = Agingfp_floorplan.Rotation
module Placer = Agingfp_place.Placer
module Thermal = Agingfp_thermal.Model
module Nbti = Agingfp_aging.Nbti
module Budget = Agingfp_util.Budget
module Pool = Agingfp_util.Pool
module Invariant = Agingfp_util.Invariant
module Json = Agingfp_lintcode.Json

let src = Logs.Src.create "agingfp.serve" ~doc:"Remap daemon"

module Log = (val Logs.src_log src : Logs.LOG)

(* ---------- configuration ---------- *)

type config = {
  host : string;
  port : int;  (* 0 = ephemeral; read the bound port with {!port} *)
  workers : int;
  queue_capacity : int;  (* admission queue bound; beyond it, 429 *)
  default_deadline_s : float;
  max_deadline_s : float;
  max_total_ops : int;  (* semantic admission bound after parsing *)
  max_dim : int;
  cache_capacity : int;
  limits : Http.limits;
  remap_params : Remap.params;  (* deadline_s overridden per request *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    workers = 2;
    queue_capacity = 16;
    default_deadline_s = 2.0;
    max_deadline_s = 60.0;
    max_total_ops = 20_000;
    max_dim = 32;
    cache_capacity = 32;
    limits = Http.default_limits;
    remap_params = Remap.default_params;
  }

(* ---------- server state ---------- *)

(* A warm-cache entry. The digests restate the key so a checked-out
   entry can be validated against the request that claimed it — the
   defence the cache-poisoning injection exercises. [design_digest]
   is mutable purely so {!Inject.poison_cache} has something real to
   corrupt. *)
type entry = {
  mutable design_digest : string;
  baseline_digest : string;
  warm : Remap.warm;
}

type job = { fd : Unix.file_descr; arrived : Budget.t (* stopwatch *) }

type counters = {
  mutable accepted : int;
  mutable served : int;  (* 200s *)
  mutable degraded : int;  (* 503s carrying the audited baseline *)
  mutable shed : int;  (* 429s *)
  mutable client_errors : int;  (* 4xx except 408/429 *)
  mutable timeouts : int;  (* 408s *)
  mutable internal_errors : int;  (* 500s, including injected *)
  mutable drained : int;  (* queued connections answered 503 during drain *)
  mutable ewma_service_s : float;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  queue : job Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  cache : entry Cache.t;
  (* dim -> factorized steady-state solver; find/replace only, never
     iterated, so no order sensitivity. *)
  thermal : (int, float array -> float array) Hashtbl.t;
  tmutex : Mutex.t;
  stats : counters;
  smutex : Mutex.t;
  pool : Pool.t;
}

let validate_config c =
  if c.workers < 1 || c.workers > 64 then
    Invariant.invalid ~where:"Server.create" "workers must be in [1, 64]";
  if c.queue_capacity < 1 then
    Invariant.invalid ~where:"Server.create" "queue capacity must be positive";
  if c.default_deadline_s <= 0.0 || c.max_deadline_s <= 0.0 then
    Invariant.invalid ~where:"Server.create" "deadlines must be positive";
  if c.cache_capacity < 1 then
    Invariant.invalid ~where:"Server.create" "cache capacity must be positive"

let create ?(config = default_config) () =
  validate_config config;
  let addr =
    match
      Unix.getaddrinfo config.host (string_of_int config.port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_PASSIVE ]
    with
    | ai :: _ -> ai.Unix.ai_addr
    | [] -> raise (Sys_error (Printf.sprintf "cannot resolve host %S" config.host))
  in
  let listen_fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 64
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close listen_fd with Unix.Unix_error (_, _, _) -> ());
    raise
      (Sys_error
         (Printf.sprintf "cannot listen on %s:%d: %s" config.host config.port
            (Unix.error_message e))));
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  {
    config;
    listen_fd;
    bound_port;
    wake_r;
    wake_w;
    stop = Atomic.make false;
    queue = Queue.create ();
    qmutex = Mutex.create ();
    qcond = Condition.create ();
    cache = Cache.create ~capacity:config.cache_capacity;
    thermal = Hashtbl.create 4;
    tmutex = Mutex.create ();
    stats =
      {
        accepted = 0;
        served = 0;
        degraded = 0;
        shed = 0;
        client_errors = 0;
        timeouts = 0;
        internal_errors = 0;
        drained = 0;
        ewma_service_s = 0.05;
      };
    smutex = Mutex.create ();
    pool = Pool.create ~domains:config.workers;
  }

let port t = t.bound_port

(* Async-signal-safe: an atomic store, a pool flag flip and one write
   to the self-pipe. The mutex-held condition broadcast that makes the
   drain prompt happens in the acceptor thread, in normal context. *)
let request_stop t =
  Atomic.set t.stop true;
  Pool.request_stop t.pool;
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error (_, _, _) -> ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let bump t f = with_lock t.smutex (fun () -> f t.stats)

let note_service t dt =
  with_lock t.smutex (fun () ->
      t.stats.ewma_service_s <- (0.7 *. t.stats.ewma_service_s) +. (0.3 *. dt))

(* ---------- JSON plumbing ---------- *)

let stop_reason_of trail =
  List.fold_left
    (fun acc (s : Remap.degradation_step) -> Budget.worst acc s.Remap.reason)
    Budget.Optimal trail

let error_body status message =
  Json.to_string
    (Json.Obj
       [
         ("status", Json.Str "error");
         ("code", Json.Int status);
         ("message", Json.Str message);
       ])

let respond_error ?(headers = []) t fd (e : Http.error) =
  bump t (fun s ->
      match e.Http.status with
      | 408 -> s.timeouts <- s.timeouts + 1
      | 500 -> s.internal_errors <- s.internal_errors + 1
      | _ -> s.client_errors <- s.client_errors + 1);
  Http.write_response ~headers ~status:e.Http.status ~content_type:"application/json"
    ~body:(error_body e.Http.status e.Http.message)
    fd

let stats_json t =
  let c = Cache.stats t.cache in
  let f = Inject.fired () in
  let qlen = with_lock t.qmutex (fun () -> Queue.length t.queue) in
  let snap = with_lock t.smutex (fun () ->
      let s = t.stats in
      (s.accepted, s.served, s.degraded, s.shed, s.client_errors, s.timeouts,
       s.internal_errors, s.drained, s.ewma_service_s))
  in
  let accepted, served, degraded, shed, client_errors, timeouts, internal_errors,
      drained, ewma = snap
  in
  Json.to_string
    (Json.Obj
       [
         ("status", Json.Str "ok");
         ("workers", Json.Int t.config.workers);
         ("queue_capacity", Json.Int t.config.queue_capacity);
         ("queue_len", Json.Int qlen);
         ("accepted", Json.Int accepted);
         ("served", Json.Int served);
         ("degraded", Json.Int degraded);
         ("shed", Json.Int shed);
         ("client_errors", Json.Int client_errors);
         ("timeouts", Json.Int timeouts);
         ("internal_errors", Json.Int internal_errors);
         ("drained", Json.Int drained);
         ("ewma_service_s", Json.Float ewma);
         ( "cache",
           Json.Obj
             [
               ("size", Json.Int c.Cache.size);
               ("capacity", Json.Int c.Cache.capacity);
               ("hits", Json.Int c.Cache.hits);
               ("misses", Json.Int c.Cache.misses);
               ("evictions", Json.Int c.Cache.evictions);
               ("poisoned", Json.Int c.Cache.poisoned);
             ] );
         ( "inject",
           Json.Obj
             [
               ("worker_raises", Json.Int f.Inject.worker_raises);
               ("cache_poisons", Json.Int f.Inject.cache_poisons);
               ("mid_deadlines", Json.Int f.Inject.mid_deadlines);
             ] );
       ])

(* ---------- request handling ---------- *)

let param name (req : Http.request) =
  match List.assoc_opt name req.Http.query with
  | Some v -> Some v
  | None -> Http.header ("x-agingfp-" ^ name) req.Http.headers

(* Split the body into the design section and an optional trailing
   mapping section (a line equal to the mapping header starts it). *)
let split_body body =
  let lines = String.split_on_char '\n' body in
  let rec split acc = function
    | [] -> (List.rev acc, None)
    | l :: rest when String.trim l = "agingfp-mapping v1" ->
      (List.rev acc, Some (String.concat "\n" (l :: rest)))
    | l :: rest -> split (l :: acc) rest
  in
  let design_lines, mapping = split [] lines in
  (String.concat "\n" design_lines, mapping)

let thermal_solver t dim =
  with_lock t.tmutex (fun () ->
      match Hashtbl.find_opt t.thermal dim with
      | Some f -> f
      | None ->
        let f = Thermal.steady_solver ~dim () in
        Hashtbl.replace t.thermal dim f;
        f)

(* Worst-PE MTTF through the cached per-dim factorization (the warm
   path [Mttf.of_mapping] cannot use, since it re-factorizes per
   call). *)
let mttf_s t design mapping =
  let dim = Fabric.dim (Design.fabric design) in
  let solve = thermal_solver t dim in
  let p = Thermal.default_params in
  let nctx = float_of_int (Design.num_contexts design) in
  let duty = Array.map (fun s -> s /. nctx) (Stress.accumulated design mapping) in
  let power = Array.map (fun d -> p.Thermal.p_leak +. (p.Thermal.p_active *. d)) duty in
  let temps = solve power in
  let worst = ref infinity in
  Array.iteri
    (fun pe d ->
      if d > 0.0 then worst := Float.min !worst (Nbti.time_to_fail ~temp_k:temps.(pe) d))
    duty;
  !worst

let float_param name ~default ~max_v req =
  match param name req with
  | None -> Ok default
  | Some v -> (
    match float_of_string_opt v with
    | Some d when Float.is_finite d && d > 0.0 && d <= max_v -> Ok d
    | _ ->
      Error
        {
          Http.status = 400;
          message = Printf.sprintf "bad %s %S (want a float in (0, %g])" name v max_v;
        })

let mode_param req =
  match param "mode" req with
  | None | Some "freeze" -> Ok Rotation.Freeze
  | Some "rotate" -> Ok Rotation.Rotate
  | Some m -> Error { Http.status = 400; message = Printf.sprintf "bad mode %S (freeze|rotate)" m }

(* The epilogue margin reserved on top of [Remap]'s own shave: JSON
   assembly, the MTTF solves and the response write all happen after
   the solver's last budget poll, the ladder itself may overshoot by
   one cooperative checkpoint, and the client measures its deadline
   against the whole round trip — so the solve gets 90% of what is
   left after queueing, minus a fixed epilogue allowance. *)
let serve_margin deadline = 0.04 +. (0.10 *. deadline)

let handle_remap t fd ~arrived ~queue_wait (req : Http.request) =
  let ( let* ) r k = match r with Ok v -> k v | Error e -> respond_error t fd e in
  let* deadline =
    float_param "deadline" ~default:t.config.default_deadline_s
      ~max_v:t.config.max_deadline_s req
  in
  let* mode = mode_param req in
  let design_text, mapping_text = split_body req.Http.body in
  let* design =
    match Serial.design_of_string design_text with
    | Ok d -> Ok d
    | Error msg -> Error { Http.status = 400; message = "bad design: " ^ msg }
  in
  let* () =
    if Design.total_ops design > t.config.max_total_ops then
      Error
        {
          Http.status = 413;
          message =
            Printf.sprintf "design has %d ops, admission limit is %d"
              (Design.total_ops design) t.config.max_total_ops;
        }
    else if Fabric.dim (Design.fabric design) > t.config.max_dim then
      Error
        {
          Http.status = 413;
          message =
            Printf.sprintf "fabric dimension %d exceeds admission limit %d"
              (Fabric.dim (Design.fabric design))
              t.config.max_dim;
        }
    else Ok ()
  in
  let* baseline =
    match mapping_text with
    | None -> Ok (Placer.aging_unaware design)
    | Some text -> (
      match Serial.mapping_of_string text with
      | Error msg -> Error { Http.status = 400; message = "bad mapping: " ^ msg }
      | Ok m -> (
        match Mapping.validate design m with
        | Ok () -> Ok m
        | Error msg ->
          Error { Http.status = 400; message = "mapping does not fit design: " ^ msg }))
  in
  (* Warm-state checkout, keyed on the canonical serialization (body
     whitespace must not split the key space). *)
  let design_digest = Digest.to_hex (Digest.string (Serial.design_to_string design)) in
  let baseline_digest =
    Digest.to_hex (Digest.string (Serial.mapping_to_string baseline))
  in
  let key = design_digest ^ ":" ^ baseline_digest in
  let warm, cache_status =
    match Cache.take t.cache key with
    | None -> (Remap.new_warm (), "miss")
    | Some e ->
      if Inject.poison_cache () then e.design_digest <- "poisoned:" ^ e.design_digest;
      if e.design_digest = design_digest && e.baseline_digest = baseline_digest then
        (e.warm, "hit")
      else begin
        (* The entry does not match the key that produced it: corrupted
           store or digest collision. Discard, count, solve cold. *)
        Log.warn (fun k -> k "cache entry failed validation; discarding");
        Cache.note_poisoned t.cache;
        (Remap.new_warm (), "miss")
      end
  in
  (* Per-request budget: whatever the client's deadline leaves after
     everything already spent since admission — queueing, reading the
     request, parsing, the baseline placement — plus the epilogue
     margin. Never refuse outright — a near-zero budget just falls
     down the ladder to the audited baseline in a few checkpoints. *)
  let remaining = deadline -. Budget.elapsed_s arrived -. serve_margin deadline in
  let remaining = if Inject.collapse_deadline () then 0.001 else Float.max 0.001 remaining in
  let params =
    { t.config.remap_params with Remap.deadline_s = Some remaining }
  in
  Inject.worker_checkpoint ~where:"serve.worker";
  let watch = Budget.create () in
  let result = Remap.solve ~warm ~params ~mode design baseline in
  let solve_s = Budget.elapsed_s watch in
  note_service t solve_s;
  Cache.put t.cache key { design_digest; baseline_digest; warm };
  if not (Audit.ok result.Remap.audit) then begin
    (* Audited-or-nothing: a floorplan that failed its audit is never
       shipped, whatever rung produced it. *)
    Log.err (fun k -> k "%s: audit failed; refusing to respond with floorplan"
        (Design.name design));
    respond_error t fd
      { Http.status = 500; message = "result failed its audit; no floorplan shipped" }
  end
  else begin
    let stop_reason = stop_reason_of result.Remap.degradation in
    let deadline_forced =
      result.Remap.rung = Remap.Baseline
      && (not result.Remap.improved)
      && List.exists
           (fun (s : Remap.degradation_step) ->
             match s.Remap.reason with Budget.Deadline -> true | _ -> false)
           result.Remap.degradation
    in
    let status = if deadline_forced then 503 else 200 in
    let mapping_text = Serial.mapping_to_string result.Remap.mapping in
    let improvement =
      if result.Remap.improved then
        mttf_s t design result.Remap.mapping /. mttf_s t design baseline
      else 1.0
    in
    let headers =
      [
        ("X-Agingfp-Rung", Remap.rung_to_string result.Remap.rung);
        ("X-Agingfp-Cache", cache_status);
        ("X-Agingfp-Audit", "pass");
      ]
      @ (if deadline_forced then [ ("Retry-After", "1") ] else [])
    in
    bump t (fun s ->
        if deadline_forced then s.degraded <- s.degraded + 1 else s.served <- s.served + 1);
    match param "format" req with
    | Some "mapping" ->
      (* Raw floorplan for tool-chain consumers: the mapping text as
         the body, result metadata in headers. *)
      Http.write_response ~headers ~status ~content_type:"text/plain" ~body:mapping_text
        fd
    | _ ->
      let body =
        Json.to_string
          (Json.Obj
             [
               ("status", Json.Str (if deadline_forced then "degraded" else "ok"));
               ("design", Json.Str (Design.name design));
               ("mode", Json.Str (match mode with Rotation.Freeze -> "freeze" | Rotation.Rotate -> "rotate"));
               ("rung", Json.Str (Remap.rung_to_string result.Remap.rung));
               ("improved", Json.Bool result.Remap.improved);
               ("audit_ok", Json.Bool true);
               ("stop_reason", Json.Str (Budget.stop_reason_to_string stop_reason));
               ( "degradation",
                 Json.List
                   (List.map
                      (fun (s : Remap.degradation_step) ->
                        Json.Obj
                          [
                            ("rung", Json.Str (Remap.rung_to_string s.Remap.rung));
                            ( "reason",
                              Json.Str (Budget.stop_reason_to_string s.Remap.reason) );
                            ("detail", Json.Str s.Remap.detail);
                          ])
                      result.Remap.degradation) );
               (* JSON has no inf/nan: Null when no branch & bound ran
                  (or nothing was proven), numbers otherwise. *)
               ( "gap",
                 if Float.is_finite result.Remap.gap then Json.Float result.Remap.gap
                 else Json.Null );
               ( "dual_bound",
                 if Float.is_finite result.Remap.dual_bound then
                   Json.Float result.Remap.dual_bound
                 else Json.Null );
               ( "rung_stats",
                 Json.List
                   (List.map
                      (fun (rung, (s : Agingfp_lp.Milp.stats)) ->
                        Json.Obj
                          [
                            ("rung", Json.Str (Remap.rung_to_string rung));
                            ("nodes", Json.Int s.Agingfp_lp.Milp.nodes);
                            ( "lp_iterations",
                              Json.Int s.Agingfp_lp.Milp.lp_iterations );
                            ("warm_solves", Json.Int s.Agingfp_lp.Milp.warm_solves);
                            ("cold_solves", Json.Int s.Agingfp_lp.Milp.cold_solves);
                            ( "heuristic_incumbents",
                              Json.Int s.Agingfp_lp.Milp.heuristic_incumbents );
                          ])
                      result.Remap.rung_stats) );
               ("st_target", Json.Float result.Remap.st_target);
               ("st_lower_bound", Json.Float result.Remap.st_lower_bound);
               ("st_up", Json.Float result.Remap.st_up);
               ("baseline_cpd_ns", Json.Float result.Remap.baseline_cpd_ns);
               ("new_cpd_ns", Json.Float result.Remap.new_cpd_ns);
               ("mttf_improvement", Json.Float improvement);
               ("cache", Json.Str cache_status);
               ("queue_wait_s", Json.Float queue_wait);
               ("solve_s", Json.Float solve_s);
               ("deadline_s", Json.Float deadline);
               ("mapping", Json.Str mapping_text);
             ])
      in
      Http.write_response ~headers ~status ~content_type:"application/json" ~body fd
  end

let handle t job =
  let queue_wait = Budget.elapsed_s job.arrived in
  match Http.read_request t.config.limits job.fd with
  | Error e -> respond_error t job.fd e
  | Ok req -> (
    match (req.Http.meth, req.Http.path) with
    | "GET", "/healthz" ->
      Http.write_response ~status:200 ~content_type:"application/json"
        ~body:(Json.to_string (Json.Obj [ ("status", Json.Str "ok") ]))
        job.fd
    | "GET", "/stats" ->
      Http.write_response ~status:200 ~content_type:"application/json"
        ~body:(stats_json t) job.fd
    | "POST", "/remap" -> (
      try handle_remap t job.fd ~arrived:job.arrived ~queue_wait req with
      | Inject.Injected where ->
        respond_error t job.fd
          { Http.status = 500; message = "injected worker fault at " ^ where }
      | Invariant.Violation msg ->
        respond_error t job.fd { Http.status = 500; message = msg }
      | e ->
        respond_error t job.fd { Http.status = 500; message = Printexc.to_string e })
    | _, ("/healthz" | "/stats" | "/remap") ->
      respond_error t job.fd
        { Http.status = 405; message = "method not allowed on " ^ req.Http.path }
    | _, path ->
      respond_error t job.fd { Http.status = 404; message = "no such endpoint " ^ path })

(* A queued connection that the drain overtook: answer something
   honest and cheap instead of parsing and solving. *)
let decline t job =
  bump t (fun s -> s.drained <- s.drained + 1);
  Http.write_response
    ~headers:[ ("Retry-After", "1") ]
    ~status:503 ~content_type:"application/json"
    ~body:(error_body 503 "server draining")
    job.fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* ---------- admission ---------- *)

let retry_after_s t =
  let qlen, ewma =
    ( with_lock t.qmutex (fun () -> Queue.length t.queue),
      with_lock t.smutex (fun () -> t.stats.ewma_service_s) )
  in
  let est = float_of_int (qlen + 1) *. ewma /. float_of_int t.config.workers in
  max 1 (min 30 (int_of_float (Float.ceil est)))

let admit t fd =
  bump t (fun s -> s.accepted <- s.accepted + 1);
  (* Per-read socket timeout so no single recv can park a worker; the
     whole-request bound is [limits.read_timeout_s]. Response writes
     time out too (slow readers). *)
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO
       (Float.min 1.0 t.config.limits.Http.read_timeout_s);
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
   with Unix.Unix_error (_, _, _) -> ());
  let verdict =
    with_lock t.qmutex (fun () ->
        if Atomic.get t.stop then `Draining
        else if Queue.length t.queue >= t.config.queue_capacity then `Shed
        else begin
          Queue.push { fd; arrived = Budget.create () } t.queue;
          Condition.signal t.qcond;
          `Queued
        end)
  in
  match verdict with
  | `Queued -> ()
  | `Draining ->
    decline t { fd; arrived = Budget.create () };
    close_quietly fd
  | `Shed ->
    (* Explicit load shedding: tell the client when to come back.
       Writing from the acceptor is safe — the response is tiny and
       SO_SNDTIMEO bounds a pathological peer. *)
    bump t (fun s -> s.shed <- s.shed + 1);
    let retry = retry_after_s t in
    Http.write_response
      ~headers:[ ("Retry-After", string_of_int retry) ]
      ~status:429 ~content_type:"application/json"
      ~body:(error_body 429 "admission queue full")
      fd;
    close_quietly fd

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stop then ()
    else
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] 1.0 with
      | readable, _, _ ->
        if Atomic.get t.stop then ()
        else begin
          if List.mem t.listen_fd readable then (
            match Unix.accept ~cloexec:true t.listen_fd with
            | fd, _ -> admit t fd
            | exception
                Unix.Unix_error
                  ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              -> ());
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  (* Stop accepting immediately; then deliver the reliable wakeup the
     signal handler could not (broadcast under the queue lock). *)
  close_quietly t.listen_fd;
  with_lock t.qmutex (fun () -> Condition.broadcast t.qcond)

(* ---------- worker loop + lifecycle ---------- *)

let worker_loop t =
  let rec loop () =
    let job =
      with_lock t.qmutex (fun () ->
          let rec wait () =
            if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
            else if Atomic.get t.stop then None
            else begin
              Condition.wait t.qcond t.qmutex;
              wait ()
            end
          in
          wait ())
    in
    match job with
    | None -> ()
    | Some job ->
      (* In-flight work finishes under its own budget; work that was
         still queued when the drain started is declined cheaply. *)
      (try if Atomic.get t.stop then decline t job else handle t job
       with e ->
         (* Last-ditch: the worker loop itself must survive anything. *)
         Log.err (fun k -> k "worker: escaped exception %s" (Printexc.to_string e));
         bump t (fun s -> s.internal_errors <- s.internal_errors + 1));
      close_quietly job.fd;
      loop ()
  in
  loop ()

(* Run the daemon until {!request_stop}. The calling thread becomes
   one of the workers (the pool's submitter helps execute its own
   batch), the acceptor runs on a systhread, and the drain leaves no
   orphaned domain: workers exit when the queue is dry and stop is
   set, the pool is shut down and deregistered, and any connection
   that raced into the queue after the last worker left is answered
   503 and closed. *)
let run t =
  (* Process-wide by necessity: a peer that disappears mid-write must
     surface as EPIPE on the socket (swallowed by {!Http.write_all}),
     not as a process-killing SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let acceptor = Thread.create accept_loop t in
  Pool.run t.pool (Array.init t.config.workers (fun _ () -> worker_loop t));
  Thread.join acceptor;
  let leftovers =
    with_lock t.qmutex (fun () ->
        let js = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        js)
  in
  List.iter
    (fun job ->
      decline t job;
      close_quietly job.fd)
    leftovers;
  Pool.shutdown t.pool;
  close_quietly t.wake_r;
  close_quietly t.wake_w;
  Log.info (fun k -> k "drained: %d connections declined during shutdown" t.stats.drained)
