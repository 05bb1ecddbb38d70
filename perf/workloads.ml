(* The four workloads: set-up, the untraced product loop, and the
   traced per-stage replay. Every product call is checked: its audit,
   its CPD against the baseline (recomputed here with Analysis.cpd) and,
   for the daemon, its HTTP status and deadline. *)

open Agingfp_cgrra
open Perf_core
module Remap = Agingfp_floorplan.Remap
module Rotation = Agingfp_floorplan.Rotation
module Paths = Agingfp_floorplan.Paths
module Candidates = Agingfp_floorplan.Candidates
module Ilp_model = Agingfp_floorplan.Ilp_model
module Refine = Agingfp_floorplan.Refine
module Audit = Agingfp_floorplan.Audit
module Analysis = Agingfp_timing.Analysis
module Placer = Agingfp_place.Placer
module Thermal = Agingfp_thermal.Model
module Mttf = Agingfp_aging.Mttf
module Milp = Agingfp_lp.Milp
module Presolve = Agingfp_lp.Presolve
module Simplex = Agingfp_lp.Simplex
module Budget = Agingfp_util.Budget
module Server = Agingfp_serve.Server
module Client = Agingfp_serve.Client

type options = {
  seed : int;  (** permutes the order of the calls *)
  design_seed : int;  (** first generator seed of each benchmark's designs *)
  seconds : float;
  trace : bool;
  smoke : bool;
}

type item = { label : string; design : Design.t; baseline : Mapping.t }

(* One product call: a solve_both plus its two MTTF gains, or one
   request. [counters] are its per-layer work counts. *)
type call = {
  index : int;  (** the item it solved *)
  time : float;
  failure : string option;
  improved : bool;
  mttf_rotate : float;
  mttf_freeze : float;
  st_target : float;
  counters : (string * float) list;
}

let params = Remap.default_params
let deadline_s = 0.6
let smoke_specs = [ "B1"; "B10"; "B4" ]

let generate name seed =
  match Benchmarks.find name with
  | None -> invalid_arg ("unknown benchmark " ^ name)
  | Some spec when seed = 0 -> Benchmarks.generate spec
  | Some spec -> Benchmarks.generate ~seed spec

(* Generator seeds D .. D+K-1 per benchmark, where generator seed 0 is
   the canonical Table-I design, in an order drawn from the workload
   seed. The designs themselves do not depend on the workload seed: the
   generator's solve times are heavy-tailed (one B16 or B21 design can
   take 30-60 s where its siblings take 7 s) and some seeds even crash
   the solver, so designs drawn per seed would swing every metric
   between runs by more than any useful bound (perf/README.md). The
   default designs are vetted; [design_seed] draws held-out ones. *)
let inputs (w : Registry.workload) o =
  let specs, seeds =
    if o.smoke then (smoke_specs, 1) else (w.Registry.specs, w.Registry.seeds)
  in
  let designs =
    Array.of_list
      (List.concat_map
         (fun name -> List.init seeds (fun i -> (name, o.design_seed + i)))
         specs)
  in
  Agingfp_util.Rng.shuffle (Agingfp_util.Rng.create o.seed) designs;
  Array.to_list designs

let place (name, seed) =
  let label = Printf.sprintf "%s-s%d" name seed in
  let design = generate name seed in
  let baseline = Trace.span ~design:label "place" (fun () -> Placer.aging_unaware design) in
  { label; design; baseline }

(* A call's per-layer work counts: the Milp counters accumulated while
   it ran, the rung that produced its floorplan, the worst B&B gap and
   the length of its degradation trail. *)
let counters (s : Milp.stats) ~rung ~gap ~degradations =
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("milp.nodes", s.Milp.nodes);
      ("simplex.lp_iterations", s.Milp.lp_iterations);
      ("simplex.warm_solves", s.Milp.warm_solves);
      ("simplex.cold_solves", s.Milp.cold_solves);
      ("simplex.refactorizations", s.Milp.refactorizations);
      ("simplex.eta_updates", s.Milp.eta_updates);
      ("simplex.peak_fill_nnz", s.Milp.fill_in);
      ("cuts.separated", s.Milp.cuts_separated);
      ("cuts.active", s.Milp.cuts_active);
      ("heuristics.incumbents", s.Milp.heuristic_incumbents);
      ("remap.degradations", degradations);
    ]
  @ List.map
      (fun r ->
        let name = Remap.rung_to_string r in
        ("remap.rung." ^ name, if name = rung then 1.0 else 0.0))
      Remap.[ Full_milp; Relax_and_fix; Lp_rounding; Heuristic; Baseline ]
  @ [ ("milp.gap_max", if Float.is_finite gap then gap else 0.0) ]

let failed index time why =
  {
    index;
    time;
    failure = Some why;
    improved = false;
    mttf_rotate = 1.0;
    mttf_freeze = 1.0;
    st_target = nan;
    counters = counters (Milp.cumulative ()) ~rung:"" ~gap:nan ~degradations:0;
  }

(* ---------- suites: Remap.solve_both in process ---------- *)

let suite_call index item =
  Milp.reset_cumulative ();
  let t0 = Trace.now () in
  match Remap.solve_both item.design item.baseline with
  | exception e -> failed index (Trace.now () -. t0) ("raised " ^ Printexc.to_string e)
  | fr, rr ->
    let gain (r : Remap.result) =
      Mttf.improvement item.design ~baseline:item.baseline ~remapped:r.Remap.mapping
    in
    let mttf_freeze = gain fr and mttf_rotate = gain rr in
    let time = Trace.now () -. t0 in
    let baseline_cpd = Analysis.cpd item.design item.baseline in
    let check (r : Remap.result) =
      if not (Audit.ok r.Remap.audit) then Some "audit failed"
      else if Analysis.cpd item.design r.Remap.mapping > baseline_cpd +. 1e-9 then
        Some "CPD increased"
      else None
    in
    {
      index;
      time;
      failure = (match check fr with Some f -> Some f | None -> check rr);
      improved = rr.Remap.improved;
      mttf_rotate;
      mttf_freeze;
      st_target = rr.Remap.st_target;
      counters =
        counters (Milp.cumulative ())
          ~rung:(Remap.rung_to_string rr.Remap.rung)
          ~gap:(Float.max fr.Remap.gap rr.Remap.gap)
          ~degradations:
            (List.length fr.Remap.degradation + List.length rr.Remap.degradation);
    }

(* ---------- the daemon: POST /remap over loopback ---------- *)

let find_sub s sub =
  let n = String.length sub and h = String.length s in
  let rec go i =
    if i + n > h then None else if String.sub s i n = sub then Some i else go (i + 1)
  in
  go 0

let count_sub s sub =
  let rec go from acc =
    match find_sub (String.sub s from (String.length s - from)) sub with
    | None -> acc
    | Some i -> go (from + i + String.length sub) (acc + 1)
  in
  go 0 0

(* The first value of ["key":] in a reply: a scalar token, or a string
   with its escapes decoded. Replies are flat objects whose top-level
   keys precede the nested arrays, so the first match is the field. *)
let json_field body key =
  match find_sub body ("\"" ^ key ^ "\":") with
  | None -> None
  | Some i ->
    let j = i + String.length key + 3 in
    if j < String.length body && body.[j] = '"' then begin
      let b = Buffer.create 256 in
      let rec go k =
        if k >= String.length body then None
        else
          match body.[k] with
          | '"' -> Some (Buffer.contents b)
          | '\\' when k + 1 < String.length body ->
            (match body.[k + 1] with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | c -> Buffer.add_char b c);
            go (k + 2)
          | c ->
            Buffer.add_char b c;
            go (k + 1)
      in
      go (j + 1)
    end
    else
      let k = ref j in
      while !k < String.length body && not (String.contains ",}]" body.[!k]) do
        incr k
      done;
      Some (String.trim (String.sub body j (!k - j)))

let json_float body key =
  match json_field body key with Some v -> float_of_string_opt v | None -> None

type daemon = { server : Server.t; thread : Thread.t; port : int }

let start_daemon () =
  let config =
    { Server.default_config with Server.port = 0; workers = 2; cache_capacity = 128 }
  in
  let server = Server.create ~config () in
  let thread = Thread.create Server.run server in
  { server; thread; port = Server.port server }

let stop_daemon d =
  Server.request_stop d.server;
  Thread.join d.thread

let request_body item =
  Serial.design_to_string item.design ^ "\n" ^ Serial.mapping_to_string item.baseline

let serve_path = Printf.sprintf "/remap?deadline=%g&mode=rotate" deadline_s

(* What the serve layer metrics need from a reply. *)
type reply = { status : int; cache : string; solve_s : float; queue_wait_s : float }

(* One request, timed by the client clock; the reply is [None] when the
   call failed before one could be read. *)
let serve_call d index item =
  let body = request_body item in
  Milp.reset_cumulative ();
  let t0 = Trace.now () in
  let reply = Client.request ~host:"127.0.0.1" ~port:d.port ~body serve_path in
  let time = Trace.now () -. t0 in
  let fail why = (failed index time why, None) in
  match reply with
  | Error msg -> fail ("transport: " ^ msg)
  | Ok r when r.Client.status <> 200 && r.Client.status <> 503 ->
    fail (Printf.sprintf "HTTP %d" r.Client.status)
  | Ok r -> (
    let body = r.Client.body in
    let header h = Option.value ~default:"" (Client.header h r) in
    let mapping =
      match json_field body "mapping" with
      | Some text -> Serial.mapping_of_string text
      | None -> Error "no mapping"
    in
    match (header "x-agingfp-audit", json_field body "audit_ok", mapping) with
    | "pass", Some "true", Ok m ->
      let improved = json_field body "improved" = Some "true" in
      let baseline_cpd = Analysis.cpd item.design item.baseline in
      let failure =
        if Mapping.validate item.design m <> Ok () then Some "invalid mapping"
        else if Analysis.cpd item.design m > baseline_cpd +. 1e-9 then Some "CPD increased"
        else if time > deadline_s then Some (Printf.sprintf "late reply (%.3f s)" time)
        else None
      in
      let num key = Option.value ~default:nan (json_float body key) in
      ( {
          index;
          time;
          failure;
          improved;
          mttf_rotate = (if improved then num "mttf_improvement" else 1.0);
          mttf_freeze = nan;
          st_target = num "st_target";
          counters =
            counters (Milp.cumulative ()) ~rung:(header "x-agingfp-rung") ~gap:(num "gap")
              ~degradations:(count_sub body "\"reason\":");
        },
        Some
          {
            status = r.Client.status;
            cache = header "x-agingfp-cache";
            solve_s = num "solve_s";
            queue_wait_s = num "queue_wait_s";
          } )
    | _, _, Error msg -> fail ("unreadable mapping: " ^ msg)
    | _ -> fail "reply not audited")

(* ---------- traced replay ---------- *)

let honours (plan : Rotation.plan) m =
  Array.for_all Fun.id
    (Array.mapi
       (fun ctx pins -> List.for_all (fun (op, pe) -> Mapping.pe_of m ~ctx ~op = pe) pins)
       plan)

(* Each stage of the pipeline through its public function, in pipeline
   order, under the same deadline share the product would give it
   ([budget] makes a fresh one per stage; unlimited for the suites).
   Returns the design's replay counters, and the iterations and time of
   its root LPs solved to optimality. *)
let replay ~budget ~deadline item ~st_target =
  let design = item.design and baseline = item.baseline in
  let span name f = Trace.span ~design:item.label name f in
  span "design" (fun () ->
      let cpd = span "timing" (fun () -> Analysis.cpd design baseline) in
      let reference, frozen =
        span "rotation" (fun () ->
            Rotation.reference ~seed:params.Remap.seed Rotation.Rotate design baseline)
      in
      let monitored =
        span "paths" (fun () ->
            Paths.monitored ~params:params.Remap.path_params design baseline)
      in
      let candidates =
        span "candidates" (fun () ->
            Candidates.build ~budget:(budget ()) ~params:params.Remap.candidate_params
              design reference ~frozen ~monitored)
      in
      ignore
        (span "step1" (fun () ->
             Remap.step1_lower_bound ~params
               ~budget:(Budget.slice (budget ()) ~fraction:0.15)
               design baseline));
      let nctx = Design.num_contexts design in
      let committed = Array.make (Fabric.num_pes (Design.fabric design)) 0.0 in
      let binaries = ref 0 and total = ref 0 in
      Array.iteri
        (fun ctx pins ->
          List.iter
            (fun (op, pe) ->
              committed.(pe) <- committed.(pe) +. Stress.op_stress design ~ctx ~op)
            pins)
        frozen;
      for ctx = 0 to nctx - 1 do
        for op = 0 to Dfg.num_ops (Design.context design ctx) - 1 do
          let n = List.length (Candidates.get candidates ~ctx ~op) in
          total := !total + n;
          if not (Candidates.is_frozen candidates ~ctx ~op) then binaries := !binaries + n
        done
      done;
      let instances =
        span "ilp_model" (fun () ->
            let build contexts =
              Ilp_model.build ~encoding:params.Remap.encoding
                ~objective:params.Remap.objective design ~baseline:reference ~st_target
                ~candidates ~monitored ~contexts ~committed
            in
            if !binaries <= params.Remap.monolithic_var_limit then
              [ build (List.init nctx Fun.id) ]
            else List.init nctx (fun ctx -> build [ ctx ]))
      in
      let lp_budget = budget () in
      let removed = ref 0 and fixed = ref 0 and iterations = ref 0 and lp_time = ref 0.0 in
      List.iter
        (fun inst ->
          let model = Ilp_model.model inst in
          (match span "presolve" (fun () -> Presolve.run ~budget:lp_budget model) with
          | Presolve.Reduced p ->
            let r = Presolve.reductions p in
            removed := !removed + r.Presolve.rows_removed;
            fixed := !fixed + r.Presolve.vars_fixed
          | Presolve.Proven_infeasible _ -> ());
          let t0 = Trace.now () in
          match
            span "simplex" (fun () ->
                Simplex.solve
                  ~params:{ Simplex.default_params with Simplex.budget = lp_budget }
                  model)
          with
          | Simplex.Optimal sol ->
            (* Per-iteration cost counts only relaxations solved to
               optimality, whose iteration count is known. *)
            iterations := !iterations + sol.Simplex.iterations;
            lp_time := !lp_time +. (Trace.now () -. t0)
          | _ -> ())
        instances;
      let r =
        span "remap" (fun () ->
            Remap.solve
              ~params:{ params with Remap.refine = false; deadline_s = deadline }
              ~mode:Rotation.Rotate design baseline)
      in
      let plan =
        if not r.Remap.improved then Array.make nctx []
        else if honours frozen r.Remap.mapping then frozen
        else Rotation.freeze_plan design baseline
      in
      let mapping, moves =
        if not r.Remap.improved then (r.Remap.mapping, 0)
        else
          let m, s =
            span "refine" (fun () ->
                Refine.improve ~params:params.Remap.refine_params ~budget:(budget ()) design
                  ~baseline_cpd:cpd ~frozen:plan ~monitored r.Remap.mapping)
          in
          (m, s.Refine.moves_accepted)
      in
      ignore
        (span "audit" (fun () ->
             Audit.run design ~baseline_cpd:cpd ~st_target:r.Remap.st_target ~frozen:plan
               ~monitored mapping));
      ignore (span "thermal" (fun () -> Thermal.pe_temperatures design mapping));
      ignore (span "mttf" (fun () -> Mttf.improvement design ~baseline ~remapped:mapping));
      let sum f = float_of_int (List.fold_left (fun acc i -> acc + f i) 0 instances) in
      ( [
          ( "paths.monitored",
            float_of_int (Array.fold_left (fun acc l -> acc + List.length l) 0 monitored) );
          ("candidates.total", float_of_int !total);
          ("ilp_model.binaries", sum Ilp_model.num_binaries);
          ("ilp_model.rows", sum Ilp_model.num_rows);
          ("presolve.rows_removed", float_of_int !removed);
          ("presolve.vars_fixed", float_of_int !fixed);
          ("refine.moves", float_of_int moves);
          ("remap.outer_iterations", float_of_int r.Remap.outer_iterations);
        ],
        (!iterations, !lp_time) ))
