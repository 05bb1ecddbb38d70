(* perf.exe — the product-path benchmark (see perf/README.md).

     perf.exe run [--workload W] [--seed S] [--design-seed D] [--seconds N]
                  [--trace [0|1]] [--out FILE] [--smoke]
     perf.exe compare A B
     perf.exe manifest

   [run] without [--workload] runs every workload, each in its own
   child process. The last line a workload prints is one JSON object
   with its correctness verdict and its end-to-end metrics (or, with
   [--trace 1], its per-layer metrics). *)

open Agingfp_cgrra
open Perf_core
module W = Workloads
module Placer = Agingfp_place.Placer
module Server = Agingfp_serve.Server
module Budget = Agingfp_util.Budget

type cli = { o : W.options; workload : string option; out : string option; run : int option }

let usage () =
  prerr_endline
    "usage: perf.exe run [--workload W] [--seed S] [--design-seed D] [--seconds N]\n\
    \                    [--trace [0|1]] [--out FILE] [--smoke]\n\
    \       perf.exe compare A B\n\
    \       perf.exe manifest";
  exit 2

let int_arg s k = match int_of_string_opt s with Some n -> k n | None -> usage ()

let rec parse c = function
  | [] -> c
  | "--workload" :: w :: rest -> parse { c with workload = Some w } rest
  | "--seed" :: s :: rest ->
    int_arg s (fun seed -> parse { c with o = { c.o with W.seed } } rest)
  | "--design-seed" :: s :: rest ->
    int_arg s (fun design_seed -> parse { c with o = { c.o with W.design_seed } } rest)
  | "--seconds" :: s :: rest -> (
    match float_of_string_opt s with
    | Some seconds when seconds > 0.0 -> parse { c with o = { c.o with W.seconds } } rest
    | _ -> usage ())
  | "--trace" :: (("0" | "1") as v) :: rest ->
    parse { c with o = { c.o with W.trace = v = "1" } } rest
  | "--trace" :: rest -> parse { c with o = { c.o with W.trace = true } } rest
  | "--smoke" :: rest -> parse { c with o = { c.o with W.smoke = true } } rest
  | "--out" :: f :: rest -> parse { c with out = Some f } rest
  | "--run" :: n :: rest -> int_arg n (fun n -> parse { c with run = Some n } rest)
  | _ -> usage ()

(* ---------- set-up ---------- *)

type setup = { items : W.item array; daemon : W.daemon option }

(* Inputs, baseline placement (the product's Placer, traced as
   [place.s]), the daemon for the serve workload, and one warm-up call
   on the tiny design. *)
let setup_once (w : Registry.workload) o =
  let items = Array.of_list (List.map W.place (W.inputs w o)) in
  let tiny = Benchmarks.tiny () in
  let warm = { W.label = "tiny"; design = tiny; baseline = Placer.aging_unaware tiny } in
  match w.Registry.kind with
  | Registry.Suite ->
    ignore (W.suite_call 0 warm);
    { items; daemon = None }
  | Registry.Daemon ->
    let d = W.start_daemon () in
    ignore (W.serve_call d 0 warm);
    { items; daemon = Some d }

let setup_reps = 3

(* Set up [setup_reps] times and report the median; the last set-up is
   the one measured (and the only one traced). *)
let setup w (o : W.options) =
  let rec go rep times =
    Trace.enabled := o.W.trace && rep = setup_reps;
    let t0 = Trace.now () in
    let s = setup_once w o in
    let times = (Trace.now () -. t0) :: times in
    Trace.enabled := false;
    if rep = setup_reps then (s, Stats.median times)
    else begin
      Option.iter W.stop_daemon s.daemon;
      go (rep + 1) times
    end
  in
  go 1 []

(* ---------- the measured loop ---------- *)

type serve_sample = { cold : bool; latency : float; reply : W.reply }

(* Suites repeat whole passes while one more fits in [seconds] (a
   traced or smoke run makes one). The daemon gets each design once
   cold and once warm; a second pass would find every design warm, so
   it makes one. *)
let measure (w : Registry.workload) (o : W.options) s =
  match (w.Registry.kind, s.daemon) with
  | Registry.Suite, _ ->
    let start = Trace.now () in
    let rec passes acc =
      let p0 = Trace.now () in
      let acc = acc @ List.mapi W.suite_call (Array.to_list s.items) in
      let now = Trace.now () in
      if o.W.trace || o.W.smoke || now +. (now -. p0) > start +. o.W.seconds then acc
      else passes acc
    in
    (passes [], [])
  | Registry.Daemon, Some d ->
    let requests =
      List.concat
        (List.mapi
           (fun i item ->
             List.map (fun cold -> (cold, W.serve_call d i item)) [ true; false ])
           (Array.to_list s.items))
    in
    ( List.map (fun (_, (call, _)) -> call) requests,
      List.filter_map
        (fun (cold, ((call : W.call), reply)) ->
          Option.map (fun reply -> { cold; latency = call.W.time; reply }) reply)
        requests )
  | Registry.Daemon, None -> invalid_arg "serve workload without a daemon"

(* ---------- end-to-end metrics ---------- *)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The calls of each pass: a suite repeats its n designs, the daemon
   makes one pass. The first pass's outcomes are the ones reported
   (later passes repeat them exactly). *)
let passes (w : Registry.workload) n calls =
  match w.Registry.kind with
  | Registry.Daemon -> [ calls ]
  | Registry.Suite ->
    List.init (List.length calls / n) (fun k -> List.filteri (fun i _ -> i / n = k) calls)

(* Latency samples: each request to the daemon, or a suite design's
   median over its passes, so that a pass slowed by another tenant of
   the host does not move it. *)
let latency_samples (w : Registry.workload) n calls =
  match w.Registry.kind with
  | Registry.Daemon -> List.map (fun c -> c.W.time) calls
  | Registry.Suite ->
    List.init n (fun i ->
        Stats.median
          (List.filter_map (fun c -> if c.W.index = i then Some c.W.time else None) calls))

let frac p xs =
  float_of_int (List.length (List.filter p xs)) /. float_of_int (max 1 (List.length xs))

let e2e_metrics w ~n ~setup_s calls =
  let ps = passes w n calls in
  let outcome = List.hd ps in
  let rate p =
    float_of_int (List.length p) /. List.fold_left (fun acc c -> acc +. c.W.time) 0.0 p
  in
  [
    ("setup_s", setup_s);
    ("solves_per_s", Stats.median (List.map rate ps));
    ("latency_p50_s", Stats.median (latency_samples w n calls));
    ("peak_heap_mb", peak_heap_mb ());
    ("improved_frac", frac (fun c -> c.W.improved) outcome);
    ("mttf_rotate_mean", Stats.mean (List.map (fun c -> c.W.mttf_rotate) outcome));
    ("mttf_freeze_mean", Stats.mean (List.map (fun c -> c.W.mttf_freeze) outcome));
    ("failed_frac", frac (fun c -> c.W.failure <> None) calls);
  ]

(* ---------- per-layer metrics ---------- *)

(* Span name -> per-layer metric; self times are summed per design and
   the median over designs is reported. *)
let stage_metrics =
  [
    ("place", "place.s");
    ("timing", "timing.cpd_s");
    ("rotation", "rotation.s");
    ("paths", "paths.s");
    ("candidates", "candidates.s");
    ("step1", "step1.s");
    ("ilp_model", "ilp_model.s");
    ("presolve", "presolve.s");
    ("simplex", "simplex.root_lp_s");
    ("refine", "refine.s");
    ("audit", "audit.s");
    ("thermal", "thermal.s");
    ("mttf", "mttf.s");
    (* The replay is not the product call (it runs each stage once
       more, outside Remap.solve), so traced minus untraced latency
       would measure that extra work; what tracing itself costs is the
       root span's self time: recorder plus harness, outside every
       stage. *)
    ("design", "trace.overhead_s");
  ]

(* Stages Remap.solve also runs internally: what its span exceeds their
   replayed cost by is the solver's own time. *)
let solve_stages =
  [ "timing"; "rotation"; "paths"; "candidates"; "step1"; "ilp_model"; "presolve"; "simplex" ]

let median_or_zero = function [] -> 0.0 | xs -> Stats.median xs

let stage_times spans =
  let per_design = Hashtbl.create 64 in
  List.iter
    (fun ((s : Trace.span), self) ->
      let k = (s.Trace.design, s.Trace.name) in
      Hashtbl.replace per_design k
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt per_design k)))
    (Trace.self_times spans);
  let designs =
    List.sort_uniq compare (List.map (fun (s : Trace.span) -> s.Trace.design) spans)
  in
  let over_designs f name =
    median_or_zero
      (List.filter_map
         (fun d -> if Hashtbl.mem per_design (d, name) then Some (f d) else None)
         designs)
  in
  let stage d name = Option.value ~default:0.0 (Hashtbl.find_opt per_design (d, name)) in
  let solver d =
    stage d "remap" -. List.fold_left (fun acc name -> acc +. stage d name) 0.0 solve_stages
  in
  List.map
    (fun (span, metric) -> (metric, over_designs (fun d -> stage d span) span))
    stage_metrics
  @ [ ("remap.solver_s", over_designs solver "remap") ]

(* Counters: the mean per call (the peak for footprints and gaps) over
   the untraced calls, and the mean per design over the replay. *)
let counter_metrics outcome replays =
  let column key rows = List.map (List.assoc key) rows in
  let keys = function row :: _ -> List.map fst row | [] -> [] in
  let calls = List.map (fun c -> c.W.counters) outcome in
  let replayed = List.map fst replays in
  let iterations, lp_time =
    List.fold_left (fun (i, t) (_, (i', t')) -> (i + i', t +. t')) (0, 0.0) replays
  in
  List.map
    (fun key ->
      match key with
      | "simplex.peak_fill_nnz" | "milp.gap_max" ->
        (key, List.fold_left Float.max 0.0 (column key calls))
      | _ -> (key, Stats.mean (column key calls)))
    (keys calls)
  @ [ ("milp.nodes_p50", median_or_zero (column "milp.nodes" calls)) ]
  @ List.map (fun key -> (key, Stats.mean (column key replayed))) (keys replayed)
  @ [
      ( "simplex.us_per_iter",
        if iterations = 0 then 0.0 else 1e6 *. lp_time /. float_of_int iterations );
    ]

let serve_metrics samples =
  let p50 f xs = median_or_zero (List.map f xs) in
  let cold, warm = List.partition (fun s -> s.cold) samples in
  let overhead s = s.latency -. s.reply.W.solve_s -. s.reply.W.queue_wait_s in
  [
    ("serve.queue_wait_s_p50", p50 (fun s -> s.reply.W.queue_wait_s) samples);
    ("serve.solve_s_p50", p50 (fun s -> s.reply.W.solve_s) samples);
    ("serve.overhead_s_p50", p50 overhead samples);
    ("serve.cold_latency_p50_s", p50 (fun s -> s.latency) cold);
    ("serve.warm_latency_p50_s", p50 (fun s -> s.latency) warm);
    ("serve.cache_hit_ratio", frac (fun s -> s.reply.W.cache = "hit") warm);
    ( "serve.status_503",
      float_of_int (List.length (List.filter (fun s -> s.reply.W.status = 503) samples)) );
  ]

(* The traced replay: one pass over the same designs, each stage under
   the deadline share the product would give it, each design with the
   ST_target its first call accepted (a design whose call failed has
   none, and the run is already incorrect). *)
let layer_metrics (w : Registry.workload) s outcome serve =
  let deadline, budget =
    match w.Registry.kind with
    | Registry.Suite -> (None, fun () -> Budget.unlimited)
    | Registry.Daemon ->
      let d = W.deadline_s -. Server.serve_margin W.deadline_s in
      (Some d, fun () -> Budget.create ~deadline_s:d ())
  in
  Trace.enabled := true;
  let replays =
    List.filter_map
      (fun i ->
        let c = List.find (fun (c : W.call) -> c.W.index = i) outcome in
        if c.W.failure <> None then None
        else Some (W.replay ~budget ~deadline s.items.(i) ~st_target:c.W.st_target))
      (List.init (Array.length s.items) Fun.id)
  in
  Trace.enabled := false;
  let spans = Trace.spans () in
  Trace.write (Printf.sprintf "perf_spans.%s.tsv" w.Registry.wname) spans;
  counter_metrics outcome replays @ stage_times spans @ serve_metrics serve

(* ---------- one workload ---------- *)

let fingerprint () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with Sys_error _ -> None
  in
  let rev =
    match read ".git/HEAD" with
    | Some h when String.starts_with ~prefix:"ref: " h ->
      read (".git/" ^ String.sub h 5 (String.length h - 5))
    | head -> head
  in
  Printf.sprintf "domains=%d ocaml=%s OCAMLRUNPARAM=%s rev=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
    (Option.value ~default:"unknown" rev)

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun ((m : Registry.metric), v) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.Registry.name v
              m.Registry.unit_)
          metrics))

(* Print the run's verdict and metrics (and append them to [--out]);
   the JSON object, with the BENCHMARK.json metrics only, comes last. *)
let report c (w : Registry.workload) ~n calls values =
  let o = c.o in
  let reported =
    List.map
      (fun (m : Registry.metric) -> (m, List.assoc_opt m.Registry.name values))
      (Registry.expected ~layer:o.W.trace w.Registry.kind)
  in
  let failures = List.filter_map (fun c -> c.W.failure) calls in
  let bad_metrics =
    List.filter_map
      (fun ((m : Registry.metric), v) ->
        match v with
        | Some v when Float.is_finite v -> None
        | Some _ -> Some (m.Registry.name ^ " is not finite")
        | None -> Some (m.Registry.name ^ " is missing"))
      reported
  in
  let correct = failures = [] && bad_metrics = [] in
  Printf.printf "%s seed %d design-seed %d%s: %d designs, %d calls, %d failed\n"
    w.Registry.wname o.W.seed o.W.design_seed
    (if o.W.trace then " (traced)" else "")
    n (List.length calls) (List.length failures);
  List.iter (Printf.printf "  FAILED: %s\n") (List.sort_uniq compare failures);
  List.iter (Printf.printf "  BAD METRIC: %s\n") bad_metrics;
  let finite = List.filter_map (fun (m, v) -> Option.map (fun v -> (m, v)) v) reported in
  List.iter
    (fun ((m : Registry.metric), v) ->
      Printf.printf "  %-28s %14.6g %s\n" m.Registry.name v m.Registry.unit_)
    finite;
  Option.iter
    (fun path ->
      let run = Option.value c.run ~default:(Results.next_run path) in
      Results.append path
        ~comment:
          (Printf.sprintf "run=%d workload=%s seed=%d design-seed=%d seconds=%g trace=%b %s"
             run w.Registry.wname o.W.seed o.W.design_seed o.W.seconds o.W.trace
             (fingerprint ()))
        (List.map
           (fun ((m : Registry.metric), value) ->
             {
               Results.run;
               workload = w.Registry.wname;
               metric = m.Registry.name;
               unit_ = m.Registry.unit_;
               value;
             })
           finite))
    c.out;
  print_endline
    (json_result ~correct ~attempted:(List.length calls) ~failed:(List.length failures)
       (List.filter (fun (m, _) -> Registry.listed m) finite));
  if correct then 0 else 1

let run_workload c (w : Registry.workload) =
  let s, setup_s = setup w c.o in
  let n = Array.length s.items in
  let calls, serve = measure w c.o s in
  let values =
    if c.o.W.trace then layer_metrics w s (List.hd (passes w n calls)) serve
    else e2e_metrics w ~n ~setup_s calls
  in
  Option.iter W.stop_daemon s.daemon;
  report c w ~n calls values

(* Every workload, each in a child process of its own so heap, GC and
   pool state do not leak from one into the next. *)
let run_all c =
  let run =
    Option.map (fun path -> Option.value c.run ~default:(Results.next_run path)) c.out
  in
  List.fold_left
    (fun worst (w : Registry.workload) ->
      let args =
        [
          "run"; "--workload"; w.Registry.wname;
          "--seed"; string_of_int c.o.W.seed;
          "--design-seed"; string_of_int c.o.W.design_seed;
          "--seconds"; Printf.sprintf "%g" c.o.W.seconds;
          "--trace"; (if c.o.W.trace then "1" else "0");
        ]
        @ (if c.o.W.smoke then [ "--smoke" ] else [])
        @
        match (c.out, run) with
        | Some f, Some r -> [ "--out"; f; "--run"; string_of_int r ]
        | _ -> []
      in
      let pid =
        Unix.create_process Sys.executable_name
          (Array.of_list (Sys.executable_name :: args))
          Unix.stdin Unix.stdout Unix.stderr
      in
      let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 1 in
      max worst code)
    0 Registry.workloads

let () =
  Logs.set_level (Some Logs.Error);
  let default =
    {
      o =
        {
          W.seed = 0;
          design_seed = 0;
          seconds = float_of_int Registry.run_seconds;
          trace = false;
          smoke = false;
        };
      workload = None;
      out = None;
      run = None;
    }
  in
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "run" :: args -> (
      let c = parse default args in
      match c.workload with
      | None -> run_all c
      | Some name -> (
        match Registry.find_workload name with
        | Some w -> run_workload c w
        | None ->
          Printf.eprintf "unknown workload %S\n" name;
          2))
    | [ "compare"; a; b ] ->
      let regressions = Results.compare ~a:(Results.read a) ~b:(Results.read b) in
      Printf.printf "%d regression(s)\n" regressions;
      if regressions > 0 then 1 else 0
    | [ "manifest" ] ->
      print_string (Registry.manifest ());
      0
    | _ -> usage ()
  in
  exit code
