(* agingfp — command-line front-end to the aging-aware floorplanner.

   Subcommands:
     list            show the Table-I benchmark suite
     remap           run the full Algorithm-1 flow on a benchmark or DSL file
     suite           run Table-I benchmarks (optionally across domains)
     mttf            report the baseline (aging-unaware) MTTF breakdown
     heatmap         print stress and thermal maps before/after re-mapping
     lint            static-analyze formulation-(3) models (or an .lp file) *)

open Agingfp_cgrra
module Placer = Agingfp_place.Placer
module Analysis = Agingfp_timing.Analysis
module Thermal = Agingfp_thermal.Model
module Mttf = Agingfp_aging.Mttf
module Remap = Agingfp_floorplan.Remap
module Rotation = Agingfp_floorplan.Rotation
module Related = Agingfp_floorplan.Related
module Audit = Agingfp_floorplan.Audit
module Ilp_model = Agingfp_floorplan.Ilp_model
module Model = Agingfp_lp.Model
module Lp_format = Agingfp_lp.Lp_format
module Analyze = Agingfp_lp.Analyze
module Milp = Agingfp_lp.Milp
module Faults = Agingfp_lp.Faults
module Router = Agingfp_route.Router
module Ascii_table = Agingfp_util.Ascii_table
module Json = Agingfp_lintcode.Json
module Pool = Agingfp_util.Pool
module Budget = Agingfp_util.Budget

(* [Logs.format_reporter] is not serialized; pool tasks (a remap's
   Freeze and Rotate runs, [suite --jobs] benchmarks) log concurrently
   and interleave mid-line without this. *)
let mutex_reporter inner =
  let m = Mutex.create () in
  {
    Logs.report =
      (fun src level ~over k msgf ->
        Mutex.lock m;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock m)
          (fun () -> inner.Logs.report src level ~over k msgf));
  }

let setup_logs level =
  Logs.set_reporter (mutex_reporter (Logs.format_reporter ()));
  Logs.set_level level

(* [--jobs 0] means "one per core"; explicit values are clamped to
   the core count — oversubscription measured 0.27x on a 1-core host,
   so it is never the default path. *)
let resolve_jobs jobs =
  if jobs <= 0 then Pool.default_jobs () else Pool.effective_jobs jobs

(* Context for the top-level fatal handler: which benchmark/input and
   which pipeline phase was active when an exception escaped, so the
   one-line diagnostic names the culprit instead of a backtrace. *)
let diag_benchmark = ref "-"
let diag_phase = ref "startup"

let set_diag ?benchmark phase =
  (match benchmark with Some b -> diag_benchmark := b | None -> ());
  diag_phase := phase

(* ---------- design loading ---------- *)

let load_design ?design_file ?(techmap = false) benchmark source dim =
  set_diag
    ?benchmark:
      (match (design_file, benchmark, source) with
      | Some path, _, _ | None, None, Some path -> Some (Filename.basename path)
      | None, Some name, _ -> Some name
      | None, None, None -> None)
    "load-design";
  match design_file with
  | Some path ->
    (* Read + parse via the raising API: [Sys_error] and
       [Serial.Parse_error] escape to the top-level [fatal] handler,
       which classifies them into distinct exit codes. *)
    let text = In_channel.with_open_text path In_channel.input_all in
    Ok (Serial.design_of_string_exn text)
  | None -> (
  match (benchmark, source) with
  | Some name, None -> (
    if name = "tiny" then Ok (Benchmarks.tiny ())
    else
      match Benchmarks.find name with
      | Some spec -> Ok (Benchmarks.generate spec)
      | None -> Error (Printf.sprintf "unknown benchmark %S (try `agingfp list`)" name))
  | None, Some path -> (
    match In_channel.with_open_text path In_channel.input_all with
    | source ->
      let fabric = Fabric.create ~dim in
      Agingfp_hls.Compile.compile ~techmap ~fabric ~name:(Filename.basename path) source
    | exception Sys_error msg -> Error msg)
  | Some _, Some _ -> Error "pass either --benchmark or --source, not both"
  | None, None -> Error "one of --benchmark, --source or --design is required")

let mode_of_string = function
  | "freeze" -> Ok Rotation.Freeze
  | "rotate" -> Ok Rotation.Rotate
  | s -> Error (Printf.sprintf "unknown mode %S (freeze|rotate)" s)

(* ---------- subcommand bodies ---------- *)

let cmd_list () =
  let rows =
    Array.to_list
      (Array.map
         (fun (s : Benchmarks.spec) ->
           [|
             s.Benchmarks.bname;
             string_of_int s.Benchmarks.contexts;
             Printf.sprintf "%dx%d" s.Benchmarks.dim s.Benchmarks.dim;
             string_of_int s.Benchmarks.total_ops;
             Benchmarks.usage_to_string s.Benchmarks.usage;
             Printf.sprintf "%.2f" s.Benchmarks.paper_freeze;
             Printf.sprintf "%.2f" s.Benchmarks.paper_rotate;
           |])
         Benchmarks.table1)
  in
  print_endline
    (Ascii_table.render
       ~header:[| "name"; "ctx"; "fabric"; "PE#"; "usage"; "paper-freeze"; "paper-rotate" |]
       rows);
  0

let cmd_mttf benchmark source dim =
  match load_design benchmark source dim with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok design ->
    let baseline = Placer.aging_unaware design in
    let b = Mttf.of_mapping design baseline in
    Format.printf "%a@." Design.pp design;
    Format.printf "baseline CPD        : %.3f ns@." (Analysis.cpd design baseline);
    Format.printf "max accum. stress   : %.3f@." (Stress.max_accumulated design baseline);
    Format.printf "mean accum. stress  : %.3f@." (Stress.mean_accumulated design baseline);
    Format.printf "MTTF                : %.3g s (%.2f years)@." b.Mttf.mttf_s
      (b.Mttf.mttf_s /. 3.156e7);
    Format.printf "critical PE         : %d (duty %.3f, %.1f C)@." b.Mttf.critical_pe
      b.Mttf.critical_duty
      (b.Mttf.critical_temp_k -. 273.15);
    0

let solver_stats_table () =
  let s = Milp.cumulative () in
  let p = s.Milp.presolve in
  let row name v = [| name; string_of_int v |] in
  let frow name v = [| name; (if Float.is_nan v then "-" else Printf.sprintf "%g" v) |] in
  Ascii_table.render
    ~header:[| "solver metric"; "value" |]
    [
      row "B&B nodes" s.Milp.nodes;
      (* A gap is only meaningful once a tree search actually ran. *)
      frow "optimality gap (worst)" (if s.Milp.nodes = 0 then nan else s.Milp.gap);
      row "heuristic incumbents" s.Milp.heuristic_incumbents;
      row "warm LP solves" s.Milp.warm_solves;
      row "cold LP solves" s.Milp.cold_solves;
      row "warm fallbacks" s.Milp.warm_fallbacks;
      row "LP iterations" s.Milp.lp_iterations;
      row "basis refactorizations" s.Milp.refactorizations;
      row "drift refreshes" s.Milp.drift_refreshes;
      row "eta updates" s.Milp.eta_updates;
      row "peak basis fill (nnz)" s.Milp.fill_in;
      row "presolve rounds" p.Agingfp_lp.Presolve.rounds;
      row "rows removed" p.Agingfp_lp.Presolve.rows_removed;
      row "singleton rows" p.Agingfp_lp.Presolve.singleton_rows;
      row "vars fixed" p.Agingfp_lp.Presolve.vars_fixed;
      row "vars substituted" p.Agingfp_lp.Presolve.vars_substituted;
      row "bounds tightened" p.Agingfp_lp.Presolve.bounds_tightened;
      row "coeffs strengthened" p.Agingfp_lp.Presolve.coeffs_strengthened;
      row "probe fixings" p.Agingfp_lp.Presolve.probe_fixings;
      row "matrix nnz removed" p.Agingfp_lp.Presolve.nnz_removed;
      row "matrix nnz fill-in" p.Agingfp_lp.Presolve.nnz_fillin;
    ]
  ^ "\n"
  ^ Ascii_table.render
      ~header:[| "presolve rule"; "applications"; "rows"; "vars"; "coeffs" |]
      (List.filter_map
         (fun (name, r) ->
           if r.Agingfp_lp.Presolve.applications = 0 then None
           else
             Some
               [|
                 name;
                 string_of_int r.Agingfp_lp.Presolve.applications;
                 string_of_int r.Agingfp_lp.Presolve.rows_touched;
                 string_of_int r.Agingfp_lp.Presolve.vars_touched;
                 string_of_int r.Agingfp_lp.Presolve.coeffs_touched;
               |])
         p.Agingfp_lp.Presolve.per_rule)

let cmd_remap benchmark source dim mode_s quiet design_file save_design save_floorplan
    techmap stats certify deadline inject_faults =
  let fault_spec =
    match inject_faults with
    | None -> Ok Faults.none
    | Some s -> Faults.of_string s
  in
  match
    (load_design ?design_file ~techmap benchmark source dim, mode_of_string mode_s,
     fault_spec)
  with
  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
    prerr_endline msg;
    1
  | Ok design, Ok mode, Ok fault_spec ->
    (match save_design with
    | Some path -> (
      match Serial.save_design path design with
      | Ok () -> Format.printf "design written to %s@." path
      | Error msg -> prerr_endline msg)
    | None -> ());
    let baseline = Placer.aging_unaware design in
    Milp.reset_cumulative ();
    Remap.reset_certification ();
    let params = { Remap.default_params with Remap.certify; deadline_s = deadline } in
    set_diag "remap";
    let r, fired =
      Faults.with_spec fault_spec (fun () ->
          let r = Remap.solve ~params ~mode design baseline in
          (r, Faults.fired ()))
    in
    set_diag "report";
    let imp = Mttf.improvement design ~baseline ~remapped:r.Remap.mapping in
    Format.printf "%a@." Design.pp design;
    if not quiet then begin
      Format.printf "@.accumulated stress before:@.%s@."
        (Stress.heatmap design baseline);
      Format.printf "@.accumulated stress after:@.%s@."
        (Stress.heatmap design r.Remap.mapping)
    end;
    Format.printf "@.ST_target           : %.3f (lower bound %.3f, baseline max %.3f)@."
      r.Remap.st_target r.Remap.st_lower_bound r.Remap.st_up;
    Format.printf "CPD                 : %.3f ns -> %.3f ns@." r.Remap.baseline_cpd_ns
      r.Remap.new_cpd_ns;
    Format.printf "MTTF increase       : %.2fx@." imp;
    Format.printf "solve rung          : %a@." Remap.pp_rung r.Remap.rung;
    if Float.is_finite r.Remap.gap then
      Format.printf "MILP gap            : %g (dual bound %g)@." r.Remap.gap
        r.Remap.dual_bound;
    (match r.Remap.rung_stats with
    | [] -> ()
    | entries ->
      Format.printf "solver work by rung :@.";
      List.iter
        (fun (rung, (s : Milp.stats)) ->
          Format.printf
            "  - %a: %d nodes, %d LP iterations (%d warm + %d cold solves, \
             %d heuristic incumbents)@."
            Remap.pp_rung rung s.Milp.nodes s.Milp.lp_iterations s.Milp.warm_solves
            s.Milp.cold_solves s.Milp.heuristic_incumbents)
        entries);
    (match r.Remap.degradation with
    | [] -> ()
    | steps ->
      Format.printf "degradation trail   :@.";
      List.iter
        (fun s -> Format.printf "  - %a@." Remap.pp_degradation_step s)
        steps);
    if inject_faults <> None then
      Format.printf
        "faults fired        : %d iteration-limit, %d pivot, %d infeasible, %d raise@."
        fired.Faults.iteration_limits fired.Faults.perturbations
        fired.Faults.infeasibilities fired.Faults.exceptions;
    if not r.Remap.improved then
      Format.printf "(no delay-clean floorplan found; baseline kept)@.";
    if stats then Format.printf "@.%s@." (solver_stats_table ());
    let cert_failed =
      if not certify then false
      else begin
        let c = Remap.certification () in
        Format.printf
          "certificates        : %d LP + %d MILP checked, %d rejected@."
          c.Remap.lp_checked c.Remap.milp_checked c.Remap.rejected;
        List.iter
          (fun msg -> Format.printf "  rejected: %s@." msg)
          (List.rev c.Remap.failures);
        c.Remap.rejected > 0
      end
    in
    Format.printf "floorplan audit     : %a@." Audit.pp r.Remap.audit;
    (match save_floorplan with
    | Some path -> (
      match Serial.save_mapping path r.Remap.mapping with
      | Ok () -> Format.printf "floorplan written to %s@." path
      | Error msg -> prerr_endline msg)
    | None -> ());
    if cert_failed || not (Audit.ok r.Remap.audit) then 1 else 0

(* Table-I sweep. Benchmarks are independent solves, so with
   [--jobs > 1] they fan out over a domain pool. Each benchmark's
   [solve_both] also submits its two modes to [Pool.get 2]; a waiting
   submitter runs only its own batch, so a busy pool simply runs the
   modes in order. Results are collected in input order, so the report
   is identical at any job count. *)
let cmd_suite jobs quick deadline =
  let jobs = resolve_jobs jobs in
  let specs =
    let all = Array.to_list Benchmarks.table1 in
    if quick then List.filteri (fun i _ -> i < 6) all else all
  in
  set_diag "suite";
  let run_one (spec : Benchmarks.spec) =
    diag_benchmark := spec.Benchmarks.bname;
    let design = Benchmarks.generate spec in
    let baseline = Placer.aging_unaware design in
    let params = { Remap.default_params with Remap.deadline_s = deadline } in
    let t = Budget.create () in
    let freeze_res, rotate_res = Remap.solve_both ~params design baseline in
    let secs = Budget.elapsed_s t in
    let imp r = Mttf.improvement design ~baseline ~remapped:r.Remap.mapping in
    let nodes r =
      List.fold_left (fun acc (_, s) -> acc + s.Milp.nodes) 0 r.Remap.rung_stats
    in
    let heur r =
      List.fold_left
        (fun acc (_, s) -> acc + s.Milp.heuristic_incumbents)
        0 r.Remap.rung_stats
    in
    ( spec,
      imp freeze_res,
      imp rotate_res,
      rotate_res.Remap.rung,
      rotate_res.Remap.gap,
      nodes freeze_res + nodes rotate_res,
      heur freeze_res + heur rotate_res,
      secs,
      Audit.ok freeze_res.Remap.audit && Audit.ok rotate_res.Remap.audit )
  in
  let wall = Budget.create () in
  let results =
    if jobs = 1 then List.map run_one specs
    else
      Array.to_list (Pool.map (Pool.get jobs) run_one (Array.of_list specs))
  in
  let wall_s = Budget.elapsed_s wall in
  set_diag "report";
  let rows =
    List.map
      (fun ((spec : Benchmarks.spec), fr, rr, rung, gap, nodes, heur, secs, ok) ->
        [|
          spec.Benchmarks.bname;
          Printf.sprintf "%.2fx" fr;
          Printf.sprintf "%.2fx" spec.Benchmarks.paper_freeze;
          Printf.sprintf "%.2fx" rr;
          Printf.sprintf "%.2fx" spec.Benchmarks.paper_rotate;
          Format.asprintf "%a" Remap.pp_rung rung;
          (if Float.is_nan gap then "-" else Printf.sprintf "%.3g" gap);
          string_of_int nodes;
          string_of_int heur;
          Printf.sprintf "%.2f" secs;
          (if ok then "ok" else "FAILED");
        |])
      results
  in
  print_endline
    (Ascii_table.render
       ~header:
         [|
           "name"; "freeze"; "paper"; "rotate"; "paper"; "rung"; "gap"; "nodes"; "heur";
           "sec"; "audit";
         |]
       rows);
  Printf.printf "%d benchmarks in %.2f s with --jobs %d\n" (List.length results) wall_s
    jobs;
  if List.for_all (fun (_, _, _, _, _, _, _, _, ok) -> ok) results then 0 else 1

let cmd_heatmap benchmark source dim mode_s =
  match (load_design benchmark source dim, mode_of_string mode_s) with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    1
  | Ok design, Ok mode ->
    let baseline = Placer.aging_unaware design in
    set_diag "remap";
    let r = Remap.solve ~mode design baseline in
    let dim = Fabric.dim (Design.fabric design) in
    Format.printf "stress before:@.%s@.@." (Stress.heatmap design baseline);
    Format.printf "stress after:@.%s@.@." (Stress.heatmap design r.Remap.mapping);
    Format.printf "temperature before (C):@.%s@.@."
      (Thermal.heatmap ~dim (Thermal.pe_temperatures design baseline));
    Format.printf "temperature after (C):@.%s@."
      (Thermal.heatmap ~dim (Thermal.pe_temperatures design r.Remap.mapping));
    0

let cmd_related benchmark source dim =
  match load_design benchmark source dim with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok design ->
    let baseline = Placer.aging_unaware design in
    let base = (Mttf.of_mapping design baseline).Mttf.mttf_s in
    let diversified =
      (Mttf.of_duty design (Related.module_diversification_duty design baseline)).Mttf.mttf_s
    in
    let cycled =
      (Mttf.of_duty design (Related.rotation_cycling_duty design baseline)).Mttf.mttf_s
    in
    set_diag "remap";
    let r = Remap.solve ~mode:Rotation.Rotate design baseline in
    let ours = (Mttf.of_mapping design r.Remap.mapping).Mttf.mttf_s in
    Format.printf "%a@.@." Design.pp design;
    Format.printf "MTTF relative to the aging-unaware baseline:@.";
    Format.printf "  baseline                      1.00x@.";
    Format.printf "  module diversification [4,8]  %.2fx@." (diversified /. base);
    Format.printf "  rotation cycling [10]         %.2fx@." (cycled /. base);
    Format.printf "  MILP re-mapping (this work)   %.2fx@." (ours /. base);
    0

let cmd_export_lp benchmark source dim mode_s out =
  match (load_design benchmark source dim, mode_of_string mode_s) with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    1
  | Ok design, Ok mode ->
    let baseline = Placer.aging_unaware design in
    let inst, st_target = Remap.build_formulation ~mode design baseline in
    (match Lp_format.write_file out (Ilp_model.model inst) with
    | Ok () ->
      Format.printf
        "formulation (3) at ST_target = %.3f written to %s (%d binaries, %d rows)@."
        st_target out (Ilp_model.num_binaries inst) (Ilp_model.num_rows inst);
      0
    | Error msg ->
      prerr_endline msg;
      1)

(* Lint one model; in text mode prints Error/Warning diagnostics plus
   a summary line. Returns the full diagnostic list. *)
let lint_model ~json name model =
  let diags = Analyze.lint model in
  if not json then begin
    Format.printf "%-10s %a@." name Analyze.pp_summary diags;
    List.iter
      (fun (d : Analyze.diagnostic) ->
        match d.Analyze.severity with
        | Analyze.Error | Analyze.Warning -> Format.printf "  %a@." Analyze.pp_diagnostic d
        | Analyze.Info -> ())
      diags
  end;
  diags

(* One finding object per diagnostic, same field convention as
   codelint's output (rule/severity/message, plus the locus that makes
   sense here: model name and optional row/var indices). *)
let lint_finding_json model_name (d : Analyze.diagnostic) =
  Json.Obj
    ([
       ("rule", Json.Str (Analyze.code_label d.Analyze.code));
       ("severity", Json.Str (Analyze.severity_label d.Analyze.severity));
       ("model", Json.Str model_name);
     ]
    @ (match d.Analyze.row with Some r -> [ ("row", Json.Int r) ] | None -> [])
    @ (match d.Analyze.var with Some v -> [ ("var", Json.Int v) ] | None -> [])
    @ [ ("message", Json.Str d.Analyze.message) ])

let lint_doc_json results =
  let findings =
    List.concat_map
      (fun (name, diags) -> List.map (lint_finding_json name) diags)
      results
  in
  let errors =
    List.fold_left
      (fun n (_, diags) -> n + List.length (Analyze.errors diags))
      0 results
  in
  Json.Obj
    [
      ("tool", Json.Str "agingfp-lint");
      ("findings", Json.List findings);
      ("errors", Json.Int errors);
    ]

let cmd_lint benchmark source dim mode_s all json lp_file =
  let results = ref [] in
  let run name model =
    let diags = lint_model ~json name model in
    results := (name, diags) :: !results;
    Analyze.errors diags = []
  in
  let status =
    match lp_file with
    | Some path -> (
      match Lp_format.read_file path with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok model -> if run (Filename.basename path) model then 0 else 1)
    | None -> (
      match mode_of_string mode_s with
      | Error msg ->
        prerr_endline msg;
        1
      | Ok mode ->
        let lint_design design =
          let baseline = Placer.aging_unaware design in
          let inst, _st = Remap.build_formulation ~mode design baseline in
          run (Design.name design) (Ilp_model.model inst)
        in
        if all then begin
          let clean = ref true in
          let check design = if not (lint_design design) then clean := false in
          check (Benchmarks.tiny ());
          Array.iter (fun spec -> check (Benchmarks.generate spec)) Benchmarks.table1;
          if !clean then 0 else 1
        end
        else (
          match load_design benchmark source dim with
          | Error msg ->
            prerr_endline msg;
            1
          | Ok design -> if lint_design design then 0 else 1))
  in
  if json && !results <> [] then
    print_endline (Json.to_string (lint_doc_json (List.rev !results)));
  status

let cmd_route benchmark source dim capacity mode_s =
  match (load_design benchmark source dim, mode_of_string mode_s) with
  | Error msg, _ | _, Error msg ->
    prerr_endline msg;
    1
  | Ok design, Ok mode ->
    let baseline = Placer.aging_unaware design in
    set_diag "remap";
    let remapped = (Remap.solve ~mode design baseline).Remap.mapping in
    let params = { Router.default_params with Router.capacity } in
    Format.printf "%a — routing with %d tracks/channel@.@." Design.pp design capacity;
    List.iter
      (fun (label, mapping) ->
        let results = Router.route_all ~params design mapping in
        Format.printf "%s floorplan:@." label;
        Array.iteri
          (fun c (r : Router.result) ->
            Format.printf
              "  ctx %2d: %3d nets, detour %.3f, peak channel use %d, overused %d@."
              c (Array.length r.Router.nets) (Router.detour_factor r)
              r.Router.max_channel_usage r.Router.overused_channels)
          results;
        Format.printf "  model CPD %.3f ns, routed CPD %.3f ns@.@."
          (Analysis.cpd design mapping)
          (Router.routed_cpd design results))
      [ ("baseline", baseline); ("re-mapped", remapped) ];
    0

(* ---------- cmdliner wiring ---------- *)

open Cmdliner

let benchmark_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Benchmark name (B1..B27 or tiny).")

let source_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "source" ] ~docv:"FILE" ~doc:"Behavioural DSL source file.")

let dim_arg =
  Arg.(
    value & opt int 8
    & info [ "d"; "dim" ] ~docv:"N" ~doc:"Fabric dimension for --source (NxN).")

let mode_arg =
  Arg.(
    value & opt string "rotate"
    & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"Critical-path handling: freeze or rotate.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Skip the stress heatmaps.")

let design_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "design" ] ~docv:"FILE" ~doc:"Load a serialized design instead.")

let save_design_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-design" ] ~docv:"FILE" ~doc:"Serialize the input design.")

let save_floorplan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-floorplan" ] ~docv:"FILE" ~doc:"Serialize the re-mapped floorplan.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the cumulative MILP/LP solver statistics (presolve reductions, \
              branch & bound nodes, warm vs. cold LP solves).")

let techmap_arg =
  Arg.(
    value & flag
    & info [ "techmap" ]
        ~doc:"Fuse ALU->DMU chains into single PEs during HLS (--source only).")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:"Re-verify every optimal LP point and MILP result in exact rational \
              arithmetic as the flow runs; exit non-zero if any certificate is \
              rejected or the final floorplan audit fails.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SEC"
        ~doc:"Wall-clock budget (seconds, monotonic clock) for the whole solve. On \
              expiry the degradation ladder falls back to ever cheaper machinery and \
              at worst returns the audited baseline floorplan.")

let inject_faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-faults" ] ~docv:"SPEC"
        ~doc:"Arm the seeded solver fault injector (robustness testing). SPEC is \
              comma-separated key=value with keys seed, iter, pivot, mag, infeas, \
              raise — e.g. seed=42,infeas=0.3,raise=0.05.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Domains the Table-I benchmarks fan out over (1 = sequential, 0 = one \
              per core).")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable debug logging.")

(* The command must be a thunk: OCaml evaluates arguments before the
   call, so passing the applied command directly would run it before
   the reporter exists and every log line would be dropped. *)
let with_logs verbose f =
  setup_logs (if verbose then Some Logs.Debug else Some Logs.Warning);
  f ()

(* ---------- the remap daemon ---------- *)

let cmd_serve host port workers queue default_deadline max_deadline cache_capacity
    max_body_kb read_timeout inject_faults =
  let module Server = Agingfp_serve.Server in
  let module Inject = Agingfp_serve.Inject in
  let fault_spec =
    match inject_faults with None -> Ok Inject.none | Some s -> Inject.of_string s
  in
  match fault_spec with
  | Error msg ->
    prerr_endline msg;
    1
  | Ok spec ->
    Inject.install spec;
    let config =
      {
        Server.default_config with
        host;
        port;
        workers;
        queue_capacity = queue;
        default_deadline_s = default_deadline;
        max_deadline_s = max_deadline;
        cache_capacity;
        limits =
          {
            Agingfp_serve.Http.default_limits with
            max_body_bytes = max_body_kb * 1024;
            read_timeout_s = read_timeout;
          };
      }
    in
    let server = Server.create ~config () in
    (* Graceful drain on SIGTERM/SIGINT: the handler runs at an OCaml
       safe point but must not take locks, so it only flips atomics
       and pokes the self-pipe; the acceptor does the reliable
       broadcast. SIGPIPE is ignored so a peer closing mid-response
       surfaces as EPIPE on the write, which Http swallows. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let drain = Sys.Signal_handle (fun _ -> Server.request_stop server) in
    Sys.set_signal Sys.sigterm drain;
    Sys.set_signal Sys.sigint drain;
    Printf.printf "agingfp serve: listening on %s:%d (%d workers, queue %d)\n%!" host
      (Server.port server) workers queue;
    Server.run server;
    Printf.printf "agingfp serve: drained\n%!";
    0

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"Show the Table-I benchmark suite")
    Term.(const (fun verbose -> with_logs verbose cmd_list) $ verbose_arg)

let mttf_cmd =
  Cmd.v (Cmd.info "mttf" ~doc:"Baseline MTTF of the aging-unaware floorplan")
    Term.(
      const (fun verbose b s d -> with_logs verbose (fun () -> cmd_mttf b s d))
      $ verbose_arg $ benchmark_arg $ source_arg $ dim_arg)

let remap_cmd =
  Cmd.v (Cmd.info "remap" ~doc:"Run the aging-aware re-mapping flow (Algorithm 1)")
    Term.(
      const
        (fun verbose b s d m q df sd sf tm stats certify deadline faults ->
          with_logs verbose (fun () ->
              cmd_remap b s d m q df sd sf tm stats certify deadline faults))
      $ verbose_arg $ benchmark_arg $ source_arg $ dim_arg $ mode_arg $ quiet_arg
      $ design_file_arg $ save_design_arg $ save_floorplan_arg $ techmap_arg $ stats_arg
      $ certify_arg $ deadline_arg $ inject_faults_arg)

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Run only the first six Table-I benchmarks.")

let suite_cmd =
  Cmd.v
    (Cmd.info "suite"
       ~doc:"Run the Table-I benchmark sweep, optionally fanning the independent \
             benchmarks out over a domain pool (--jobs)")
    Term.(
      const (fun verbose jobs quick deadline ->
          with_logs verbose (fun () -> cmd_suite jobs quick deadline))
      $ verbose_arg $ jobs_arg $ quick_arg $ deadline_arg)

let out_arg =
  Arg.(
    value & opt string "model.lp"
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output LP file path.")

let export_lp_cmd =
  Cmd.v
    (Cmd.info "export-lp"
       ~doc:"Write the formulation-(3) MILP in CPLEX LP format")
    Term.(
      const (fun verbose b s d m o -> with_logs verbose (fun () -> cmd_export_lp b s d m o))
      $ verbose_arg $ benchmark_arg $ source_arg $ dim_arg $ mode_arg $ out_arg)

let capacity_arg =
  Arg.(
    value & opt int 4
    & info [ "capacity" ] ~docv:"N" ~doc:"Routing tracks per channel.")

let route_cmd =
  Cmd.v (Cmd.info "route" ~doc:"Route the floorplans through the channel model")
    Term.(
      const (fun verbose b s d c m -> with_logs verbose (fun () -> cmd_route b s d c m))
      $ verbose_arg $ benchmark_arg $ source_arg $ dim_arg $ capacity_arg $ mode_arg)

let lint_all_arg =
  Arg.(
    value & flag
    & info [ "all" ] ~doc:"Lint every bundled benchmark (tiny plus B1..B27).")

let lint_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit findings as a single JSON document on stdout (same \
           rule/severity/message field convention as codelint --json) \
           instead of the human-readable report.")

let lp_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lp-file" ] ~docv:"FILE" ~doc:"Lint a CPLEX-LP-format model file instead.")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Static-analyze a formulation-(3) model (or an .lp file) for \
             inconsistent bounds, degenerate rows, and conditioning problems")
    Term.(
      const (fun verbose b s d m all json lp ->
          with_logs verbose (fun () -> cmd_lint b s d m all json lp))
      $ verbose_arg $ benchmark_arg $ source_arg $ dim_arg $ mode_arg $ lint_all_arg
      $ lint_json_arg $ lp_file_arg)

let related_cmd =
  Cmd.v
    (Cmd.info "related" ~doc:"Compare against prior aging-mitigation strategies")
    Term.(
      const (fun verbose b s d -> with_logs verbose (fun () -> cmd_related b s d))
      $ verbose_arg $ benchmark_arg $ source_arg $ dim_arg)

let heatmap_cmd =
  Cmd.v (Cmd.info "heatmap" ~doc:"Stress and thermal maps before/after re-mapping")
    Term.(
      const (fun verbose b s d m -> with_logs verbose (fun () -> cmd_heatmap b s d m))
      $ verbose_arg $ benchmark_arg $ source_arg $ dim_arg $ mode_arg)

let serve_cmd =
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")
  in
  let port_arg =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT" ~doc:"Port to bind (0 picks an ephemeral port).")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains solving requests.")
  in
  let queue_arg =
    Arg.(
      value & opt int 16
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission queue bound; beyond it requests are shed with 429 and a \
                Retry-After estimate.")
  in
  let default_deadline_arg =
    Arg.(
      value & opt float 2.0
      & info [ "default-deadline" ] ~docv:"SEC"
          ~doc:"Deadline for requests that do not carry one.")
  in
  let max_deadline_arg =
    Arg.(
      value & opt float 60.0
      & info [ "max-deadline" ] ~docv:"SEC" ~doc:"Upper bound on client deadlines.")
  in
  let cache_arg =
    Arg.(
      value & opt int 32
      & info [ "cache" ] ~docv:"N"
          ~doc:"Warm-state cache capacity (design+baseline fingerprints, LRU).")
  in
  let max_body_arg =
    Arg.(
      value & opt int 4096
      & info [ "max-body" ] ~docv:"KB" ~doc:"Largest accepted request body, in KiB.")
  in
  let read_timeout_arg =
    Arg.(
      value & opt float 10.0
      & info [ "read-timeout" ] ~docv:"SEC"
          ~doc:"Budget for reading one whole request (slow-loris defence).")
  in
  let serve_faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject-faults" ] ~docv:"SPEC"
          ~doc:"Arm the seeded server fault injector. SPEC is comma-separated \
                key=value with keys seed, raise, poison, expire, slow — e.g. \
                seed=42,raise=0.1,poison=0.2.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the remap daemon: HTTP requests in, audited floorplans out, with \
             admission control, warm-state caching and graceful degradation under \
             overload")
    Term.(
      const (fun verbose host port workers queue dd md cache body rt faults ->
          with_logs verbose (fun () ->
              cmd_serve host port workers queue dd md cache body rt faults))
      $ verbose_arg $ host_arg $ port_arg $ workers_arg $ queue_arg
      $ default_deadline_arg $ max_deadline_arg $ cache_arg $ max_body_arg
      $ read_timeout_arg $ serve_faults_arg)

let main_cmd =
  let doc = "MILP-based aging-aware floorplanner for multi-context CGRRAs" in
  Cmd.group (Cmd.info "agingfp" ~version:"1.0.0" ~doc)
    [
      list_cmd; mttf_cmd; remap_cmd; suite_cmd; heatmap_cmd; related_cmd; export_lp_cmd;
      route_cmd; lint_cmd; serve_cmd;
    ]

(* Exit codes of the structured fatal handler; 1/2 stay cmdliner's
   "command failed" / "CLI usage error". *)
let exit_invariant = 3
let exit_parse = 4
let exit_sys = 5

let fatal code kind msg =
  Printf.eprintf "agingfp: fatal %s [benchmark=%s phase=%s]: %s\n" kind !diag_benchmark
    !diag_phase msg;
  exit code

let () =
  (* [~catch:false] so escaping exceptions reach this handler instead
     of cmdliner's backtrace printer: a one-line structured diagnostic
     with a distinct exit code per failure class. *)
  try exit (Cmd.eval' ~catch:false main_cmd) with
  | Agingfp_util.Invariant.Violation msg ->
    fatal exit_invariant "invariant-violation" msg
  | Serial.Parse_error (line, msg) ->
    fatal exit_parse "parse-error" (Printf.sprintf "line %d: %s" line msg)
  | Sys_error msg -> fatal exit_sys "system-error" msg
