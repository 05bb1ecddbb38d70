(* Benchmark harness: regenerates every table and figure of the paper
   plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table1       -- one experiment
     dune exec bench/main.exe -- table1 --quick   -- 4x4 + 8x8 rows only

   Experiments: table1, fig2a, fig2b, fig4, fig5, ablation-ilp,
   ablation-naive, ablation-encoding, ablation-decomp, micro.

   Absolute MTTF factors depend on technology constants the paper
   does not publish; the *shape* — Rotate >= Freeze, low utilization
   leveling better than high, more contexts giving more headroom, a
   ~2-2.5x overall average — is the reproduction target (see
   EXPERIMENTS.md). *)

open Agingfp_cgrra
module Placer = Agingfp_place.Placer
module Analysis = Agingfp_timing.Analysis
module Thermal = Agingfp_thermal.Model
module Nbti = Agingfp_aging.Nbti
module Mttf = Agingfp_aging.Mttf
module Remap = Agingfp_floorplan.Remap
module Rotation = Agingfp_floorplan.Rotation
module Naive = Agingfp_floorplan.Naive
module Primary_ilp = Agingfp_floorplan.Primary_ilp
module Related = Agingfp_floorplan.Related
module Lifetime = Agingfp_floorplan.Lifetime
module Router = Agingfp_route.Router
module Ilp_model = Agingfp_floorplan.Ilp_model
module Ascii_table = Agingfp_util.Ascii_table
module Stats = Agingfp_util.Stats
module Coord = Agingfp_util.Coord
module Milp = Agingfp_lp.Milp
module LpModel = Agingfp_lp.Model
module LpExpr = Agingfp_lp.Expr
module Simplex = Agingfp_lp.Simplex
module Basis = Agingfp_lp.Basis
module Pool = Agingfp_util.Pool

let quick = ref false

let header title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n%!"

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---------- Table I (and the data behind Fig. 5) ---------- *)

type row_result = {
  spec : Benchmarks.spec;
  freeze_x : float;
  rotate_x : float;
  seconds : float;
}

let table1_results : row_result list ref = ref []

let run_suite () =
  if !table1_results = [] then begin
    let specs =
      Array.to_list Benchmarks.table1
      |> List.filter (fun (s : Benchmarks.spec) -> (not !quick) || s.Benchmarks.dim <= 8)
    in
    table1_results :=
      List.map
        (fun (spec : Benchmarks.spec) ->
          let design = Benchmarks.generate spec in
          let baseline = Placer.aging_unaware design in
          let (freeze_res, rotate_res), seconds =
            time_it (fun () -> Remap.solve_both design baseline)
          in
          let imp r = Mttf.improvement design ~baseline ~remapped:r.Remap.mapping in
          let row =
            { spec; freeze_x = imp freeze_res; rotate_x = imp rotate_res; seconds }
          in
          Printf.printf "  %-4s done in %6.1fs: freeze %.2fx rotate %.2fx\n%!"
            spec.Benchmarks.bname seconds row.freeze_x row.rotate_x;
          row)
        specs
  end;
  !table1_results

let bench_table1 () =
  header "Table I: MTTF increase for B1-B27 (Freeze / Rotate vs paper)";
  let results = run_suite () in
  let rows =
    List.map
      (fun r ->
        let s = r.spec in
        [|
          s.Benchmarks.bname;
          string_of_int s.Benchmarks.contexts;
          Printf.sprintf "%dx%d" s.Benchmarks.dim s.Benchmarks.dim;
          string_of_int s.Benchmarks.total_ops;
          Benchmarks.usage_to_string s.Benchmarks.usage;
          Printf.sprintf "%.2f" r.freeze_x;
          Printf.sprintf "%.2f" s.Benchmarks.paper_freeze;
          Printf.sprintf "%.2f" r.rotate_x;
          Printf.sprintf "%.2f" s.Benchmarks.paper_rotate;
          Printf.sprintf "%.1f" r.seconds;
        |])
      results
  in
  print_endline
    (Ascii_table.render
       ~header:
         [|
           "bench"; "ctx"; "fabric"; "PE#"; "usage"; "freeze"; "(paper)"; "rotate";
           "(paper)"; "sec";
         |]
       rows);
  (* Per-usage-class averages, as in the paper's Avg. row. *)
  List.iter
    (fun usage ->
      let xs = List.filter (fun r -> r.spec.Benchmarks.usage = usage) results in
      if xs <> [] then begin
        let avg f = Stats.mean (Array.of_list (List.map f xs)) in
        Printf.printf "Avg %-6s: freeze %.2f (paper %.2f)   rotate %.2f (paper %.2f)\n"
          (Benchmarks.usage_to_string usage)
          (avg (fun r -> r.freeze_x))
          (avg (fun r -> r.spec.Benchmarks.paper_freeze))
          (avg (fun r -> r.rotate_x))
          (avg (fun r -> r.spec.Benchmarks.paper_rotate))
      end)
    [ Benchmarks.Low; Benchmarks.Medium; Benchmarks.High ];
  Printf.printf "Overall rotate average: %.2fx (paper: 2.50x)\n"
    (Stats.mean (Array.of_list (List.map (fun r -> r.rotate_x) results)))

let bench_fig5 () =
  header "Fig. 5: MTTF increase grouped by fabric size (CxFy)";
  let results = run_suite () in
  let rows =
    List.concat_map
      (fun contexts ->
        List.filter_map
          (fun dim ->
            let group =
              List.filter
                (fun r ->
                  r.spec.Benchmarks.contexts = contexts && r.spec.Benchmarks.dim = dim)
                results
            in
            if group = [] then None
            else begin
              let pick usage =
                match List.find_opt (fun r -> r.spec.Benchmarks.usage = usage) group with
                | Some r -> Printf.sprintf "%.2f" r.rotate_x
                | None -> "-"
              in
              Some
                [|
                  Printf.sprintf "C%dF%d" contexts dim;
                  pick Benchmarks.Low;
                  pick Benchmarks.Medium;
                  pick Benchmarks.High;
                |]
            end)
          [ 4; 8; 16 ])
      [ 4; 8; 16 ]
  in
  print_endline
    (Ascii_table.render ~header:[| "group"; "low util"; "medium util"; "high util" |] rows);
  print_endline
    "(series shape to check: bars fall with utilization and rise with context count)"

(* ---------- Fig. 2a: stress maps ---------- *)

let bench_fig2a () =
  header "Fig. 2a: accumulated stress before/after aging-aware re-mapping";
  let design = Benchmarks.tiny () in
  let baseline = Placer.aging_unaware design in
  let result = Remap.solve ~mode:Rotation.Rotate design baseline in
  Printf.printf "aging-unaware floorplan (max %.2f):\n%s\n\n"
    (Stress.max_accumulated design baseline)
    (Stress.heatmap design baseline);
  Printf.printf "aging-aware floorplan (max %.2f):\n%s\n"
    (Stress.max_accumulated design result.Remap.mapping)
    (Stress.heatmap design result.Remap.mapping);
  Printf.printf "\nmax accumulated stress ratio: %.2f (paper's example: 4 -> 2)\n"
    (Stress.max_accumulated design baseline
    /. Stress.max_accumulated design result.Remap.mapping)

(* ---------- Fig. 2b: V_th shift curves ---------- *)

let bench_fig2b () =
  header "Fig. 2b: V_th shift vs time, original vs re-mapped";
  let design = Benchmarks.generate (Option.get (Benchmarks.find "B10")) in
  let baseline = Placer.aging_unaware design in
  let result = Remap.solve ~mode:Rotation.Rotate design baseline in
  let before = Mttf.of_mapping design baseline in
  let after = Mttf.of_mapping design result.Remap.mapping in
  let params = Nbti.default_params in
  let year = 3.156e7 in
  let fail_mv = 1000.0 *. params.Nbti.fail_frac *. params.Nbti.vth0 in
  Printf.printf "failure threshold: %.1f mV (10%% of V_th0)\n\n" fail_mv;
  Printf.printf "%8s  %14s  %14s\n" "years" "original (mV)" "re-mapped (mV)";
  List.iter
    (fun years ->
      let t = years *. year in
      let shift (b : Mttf.breakdown) =
        1000.0
        *. Nbti.vth_shift ~duty:b.Mttf.critical_duty ~temp_k:b.Mttf.critical_temp_k t
      in
      Printf.printf "%8.0f  %14.2f  %14.2f\n" years (shift before) (shift after))
    [ 5.; 10.; 20.; 40.; 60.; 80.; 120.; 160.; 240. ];
  Printf.printf "\nMTTF: %.1f years -> %.1f years (%.2fx)\n"
    (before.Mttf.mttf_s /. year)
    (after.Mttf.mttf_s /. year)
    (after.Mttf.mttf_s /. before.Mttf.mttf_s);
  Printf.printf
    "(shape: re-mapped curve has the lower slope, crossing the threshold later)\n"

(* ---------- Fig. 4: rotation ---------- *)

let bench_fig4 () =
  header "Fig. 4: critical-path orientations and delay-aware re-mapping";
  let path = [ Coord.make 0 0; Coord.make 1 0; Coord.make 2 0; Coord.make 2 1 ] in
  let wire ps =
    let rec total = function
      | a :: (b :: _ as tl) -> Coord.manhattan a b + total tl
      | _ -> 0
    in
    total ps
  in
  Printf.printf "intra-path wire length of an L-shaped path under the 8 orientations:\n";
  Array.iter
    (fun o ->
      Printf.printf "  %-6s %d\n"
        (Coord.orientation_to_string o)
        (wire (Coord.transform_all o path)))
    Coord.all_orientations;
  let images =
    Array.to_list Coord.all_orientations
    |> List.map (fun o ->
           List.sort Coord.compare (fst (Coord.normalize (Coord.transform_all o path))))
  in
  Printf.printf "distinct orientation images: %d (paper: 8 unique orientations)\n"
    (List.length (List.sort_uniq compare images));
  (* Freeze vs Rotate on one benchmark: rotation lowers the frozen
     stress floor, which is the whole point of step 2.1. *)
  let design = Benchmarks.generate (Option.get (Benchmarks.find "B13")) in
  let baseline = Placer.aging_unaware design in
  let freeze_res, rotate_res = Remap.solve_both design baseline in
  Printf.printf "\nB13: freeze ST_target %.3f vs rotate ST_target %.3f (lower is better)\n"
    freeze_res.Remap.st_target rotate_res.Remap.st_target;
  Printf.printf "B13: freeze MTTF %.2fx vs rotate MTTF %.2fx\n"
    (Mttf.improvement design ~baseline ~remapped:freeze_res.Remap.mapping)
    (Mttf.improvement design ~baseline ~remapped:rotate_res.Remap.mapping)

(* ---------- Ablation: primary ILP vs two-step MILP (paper par. V.A) ---------- *)

let bench_ablation_ilp () =
  header "Ablation (par. V.A): primary monolithic ILP vs two-step MILP";
  Milp.reset_cumulative ();
  Printf.printf "%-22s %9s %6s | %9s %8s | %9s %8s\n" "instance" "binaries" "rows"
    "ILP sec" "solved" "MILP sec" "MTTFx";
  let cases =
    [
      ("tiny", None);
      ("B1", Benchmarks.find "B1");
      ("B10", Benchmarks.find "B10");
      ("B19", Benchmarks.find "B19");
      ("B4", Benchmarks.find "B4");
    ]
  in
  List.iter
    (fun (name, spec) ->
      let design =
        match spec with Some s -> Benchmarks.generate s | None -> Benchmarks.tiny ()
      in
      let baseline = Placer.aging_unaware design in
      let ilp_result, ilp_time = time_it (fun () -> Primary_ilp.solve design baseline) in
      let solved =
        match ilp_result.Primary_ilp.mapping with Some _ -> "yes" | None -> "NO"
      in
      let milp, milp_time =
        time_it (fun () -> Remap.solve ~mode:Rotation.Rotate design baseline)
      in
      let imp = Mttf.improvement design ~baseline ~remapped:milp.Remap.mapping in
      Printf.printf "%-22s %9d %6d | %9.2f %8s | %9.2f %8.2f\n%!" name
        ilp_result.Primary_ilp.binaries ilp_result.Primary_ilp.rows ilp_time solved
        milp_time imp)
    cases;
  Printf.printf
    "\n(the primary ILP's binaries grow as ops x PEs x contexts; the paper reports\n";
  Printf.printf
    " it failed to finish within 5 days on larger benchmarks — here it hits the\n";
  Printf.printf " node budget while the two-step MILP finishes every instance)\n";
  Printf.printf "\nsolver stats: %s\n"
    (Format.asprintf "%a" Milp.pp_stats (Milp.cumulative ()))

(* ---------- Ablation: naive spreading (paper par. IV) ---------- *)

let bench_ablation_naive () =
  header "Ablation (par. IV): naive delay-unaware spreading increases CPD";
  Printf.printf "%-6s | %9s %9s %9s | %9s %9s\n" "bench" "base CPD" "naiveCPD" "increase"
    "naive ST" "remap ST";
  List.iter
    (fun name ->
      let design = Benchmarks.generate (Option.get (Benchmarks.find name)) in
      let baseline = Placer.aging_unaware design in
      let naive = Naive.spread design baseline in
      let remap = Remap.solve ~mode:Rotation.Rotate design baseline in
      let cpd0 = Analysis.cpd design baseline in
      let cpd1 = Analysis.cpd design naive in
      Printf.printf "%-6s | %8.2fns %8.2fns %8.1f%% | %9.3f %9.3f\n%!" name cpd0 cpd1
        (100.0 *. ((cpd1 /. cpd0) -. 1.0))
        (Stress.max_accumulated design naive)
        (Stress.max_accumulated design remap.Remap.mapping))
    [ "B1"; "B10"; "B19"; "B13" ];
  Printf.printf
    "\n(naive spreading levels stress slightly better but breaks the CPD guarantee;\n";
  Printf.printf " the paper's method levels almost as far at zero delay cost)\n"

(* ---------- Ablation: path-constraint encodings ---------- *)

let bench_ablation_encoding () =
  header "Ablation: path-constraint encoding (displacement vs exact vs hybrid)";
  let design = Benchmarks.generate (Option.get (Benchmarks.find "B13")) in
  let baseline = Placer.aging_unaware design in
  Printf.printf "%-14s | %9s %9s %7s\n" "encoding" "sec" "ST" "MTTFx";
  List.iter
    (fun (name, enc) ->
      let params = { Remap.default_params with encoding = enc } in
      let r, dt =
        time_it (fun () -> Remap.solve ~params ~mode:Rotation.Rotate design baseline)
      in
      let imp = Mttf.improvement design ~baseline ~remapped:r.Remap.mapping in
      Printf.printf "%-14s | %9.2f %9.3f %7.2f\n%!" name dt r.Remap.st_target imp)
    [
      ("displacement", Ilp_model.Displacement);
      ("exact-abs", Ilp_model.Exact_abs);
      ("hybrid", Ilp_model.Hybrid);
    ]

(* ---------- Ablation: monolithic vs per-context decomposition ---------- *)

let bench_ablation_decomp () =
  header "Ablation (DESIGN.md par. 5): monolithic MILP vs per-context decomposition";
  Milp.reset_cumulative ();
  Printf.printf "%-6s %-12s | %9s %9s %7s\n" "bench" "shape" "sec" "ST" "MTTFx";
  List.iter
    (fun name ->
      let design = Benchmarks.generate (Option.get (Benchmarks.find name)) in
      let baseline = Placer.aging_unaware design in
      List.iter
        (fun (sname, monolithic_var_limit) ->
          let params = { Remap.default_params with monolithic_var_limit } in
          let r, dt =
            time_it (fun () -> Remap.solve ~params ~mode:Rotation.Rotate design baseline)
          in
          let imp = Mttf.improvement design ~baseline ~remapped:r.Remap.mapping in
          Printf.printf "%-6s %-12s | %9.2f %9.3f %7.2f\n%!" name sname dt
            r.Remap.st_target imp)
        [ ("monolithic", max_int); ("per-context", -1) ])
    [ "B1"; "B10"; "B13" ];
  Printf.printf "\nsolver stats: %s\n"
    (Format.asprintf "%a" Milp.pp_stats (Milp.cumulative ()))

(* ---------- Ablation: related-work strategies (paper refs [4],[8],[10]) ---------- *)

let bench_ablation_related () =
  header "Ablation: prior aging-mitigation strategies vs the MILP floorplanner";
  Printf.printf "%-6s | %10s %10s %10s %10s\n" "bench" "baseline" "mod-div[4]"
    "rot-cyc[10]" "MILP(ours)";
  List.iter
    (fun name ->
      let design = Benchmarks.generate (Option.get (Benchmarks.find name)) in
      let baseline = Placer.aging_unaware design in
      let base = (Mttf.of_mapping design baseline).Mttf.mttf_s in
      let diversified =
        (Mttf.of_duty design (Related.module_diversification_duty design baseline)).Mttf.mttf_s
      in
      let cycled =
        (Mttf.of_duty design (Related.rotation_cycling_duty design baseline)).Mttf.mttf_s
      in
      let remapped = Remap.solve ~mode:Rotation.Rotate design baseline in
      let ours = (Mttf.of_mapping design remapped.Remap.mapping).Mttf.mttf_s in
      Printf.printf "%-6s | %9.2fx %9.2fx %9.2fx %9.2fx\n%!" name 1.0
        (diversified /. base) (cycled /. base) (ours /. base))
    [ "B1"; "B10"; "B19"; "B13" ];
  Printf.printf
    "\n(periodic configuration swapping time-shares stress without re-optimizing\n";
  Printf.printf
    " the floorplan; with spare PEs the MILP re-binding levels further — the\n";
  Printf.printf " paper's core argument against refs [4], [8], [10])\n"

(* ---------- Ablation: periodic wear-aware re-mapping (extension) ---------- *)

let bench_ablation_lifetime () =
  header "Extension: lifetime simulation with periodic wear-aware re-mapping";
  Printf.printf "%-6s | %14s %14s %14s\n" "bench" "static base" "static aware"
    "periodic aware";
  List.iter
    (fun name ->
      let design = Benchmarks.generate (Option.get (Benchmarks.find name)) in
      let baseline = Placer.aging_unaware design in
      let remapped = (Remap.solve ~mode:Rotation.Rotate design baseline).Remap.mapping in
      let horizon_epochs = 600 and epoch_years = 2.0 in
      let run strategy =
        let o = Lifetime.simulate design ~epochs:horizon_epochs ~epoch_years strategy in
        match o.Lifetime.failed_at_years with
        | Some y -> Printf.sprintf "%8.1f yrs" y
        | None -> Printf.sprintf ">%7.0f yrs" (float_of_int horizon_epochs *. epoch_years)
      in
      Printf.printf "%-6s | %14s %14s %14s\n%!" name
        (run (Lifetime.Static baseline))
        (run (Lifetime.Static remapped))
        (run (Lifetime.wear_aware_strategy design ~baseline ~start:remapped)))
    [ "B1"; "B10"; "B13" ];
  Printf.printf
    "\n(re-leveling against accumulated wear at every epoch boundary extends life\n";
  Printf.printf
    " beyond any static floorplan — the regime the paper's refs [3], [8] target,\n";
  Printf.printf " here with the delay guarantee preserved at every epoch)\n"

(* ---------- Table I robustness: multiple generator seeds ---------- *)

let bench_table1_seeds () =
  header "Table I robustness: MTTF increase across 5 benchmark-generator seeds";
  Printf.printf
    "(the paper's B1-B27 are unpublished C programs; our stand-ins are seeded\n";
  Printf.printf
    " synthetic designs, so the result must be stable across the seed choice)\n\n";
  Printf.printf "%-6s | %8s %8s %8s | %8s\n" "bench" "mean" "min" "max" "paper";
  List.iter
    (fun name ->
      let spec = Option.get (Benchmarks.find name) in
      let xs =
        List.map
          (fun seed ->
            let design = Benchmarks.generate ~seed spec in
            let baseline = Placer.aging_unaware design in
            let r = Remap.solve ~mode:Rotation.Rotate design baseline in
            Mttf.improvement design ~baseline ~remapped:r.Remap.mapping)
          [ 11; 23; 37; 51; 77 ]
      in
      let arr = Array.of_list xs in
      Printf.printf "%-6s | %7.2fx %7.2fx %7.2fx | %7.2fx\n%!" name (Stats.mean arr)
        (Stats.fmin arr) (Stats.fmax arr) spec.Benchmarks.paper_rotate)
    [ "B1"; "B10"; "B19"; "B4"; "B13"; "B22" ]

(* ---------- Ablation: physical routing check ---------- *)

let bench_ablation_routing () =
  header "Physical check: routing the floorplans (PathFinder, 2 tracks/channel)";
  let params = { Router.default_params with Router.capacity = 2 } in
  Printf.printf "%-6s %-10s | %8s %8s %8s | %10s %10s\n" "bench" "floorplan" "detour"
    "maxuse" "overuse" "manh. CPD" "routed CPD";
  List.iter
    (fun name ->
      let design = Benchmarks.generate (Option.get (Benchmarks.find name)) in
      let baseline = Placer.aging_unaware design in
      let remapped = (Remap.solve ~mode:Rotation.Rotate design baseline).Remap.mapping in
      List.iter
        (fun (label, mapping) ->
          let results = Router.route_all ~params design mapping in
          let detour =
            Stats.mean (Array.map Router.detour_factor results)
          in
          let maxuse =
            Array.fold_left (fun a r -> max a r.Router.max_channel_usage) 0 results
          in
          let overuse =
            Array.fold_left (fun a r -> a + r.Router.overused_channels) 0 results
          in
          Printf.printf "%-6s %-10s | %8.3f %8d %8d | %8.2fns %8.2fns\n%!" name label
            detour maxuse overuse
            (Analysis.cpd design mapping)
            (Router.routed_cpd design results))
        [ ("baseline", baseline); ("remapped", remapped) ])
    [ "B1"; "B10"; "B13" ];
  Printf.printf
    "\n(the re-mapped floorplans stay congestion-free and their routed CPD matches\n";
  Printf.printf
    " the Manhattan wire model the MILP reasons with, so the no-delay-increase\n";
  Printf.printf " guarantee survives physical routing)\n"

(* ---------- Ablation: NBTI technology-constant sensitivity ---------- *)

let bench_ablation_nbti () =
  header "Sensitivity: MTTF improvement vs unpublished NBTI constants";
  let design = Benchmarks.generate (Option.get (Benchmarks.find "B13")) in
  let baseline = Placer.aging_unaware design in
  let remapped = (Remap.solve ~mode:Rotation.Rotate design baseline).Remap.mapping in
  Printf.printf "%8s %8s | %12s\n" "n" "Ea (eV)" "MTTF factor";
  List.iter
    (fun n_exp ->
      List.iter
        (fun ea_ev ->
          let nbti = { Nbti.default_params with Nbti.n_exp; ea_ev } in
          let imp = Mttf.improvement ~nbti design ~baseline ~remapped in
          Printf.printf "%8.2f %8.2f | %11.2fx\n%!" n_exp ea_ev imp)
        [ 0.05; 0.10; 0.15 ])
    [ 0.16; 0.20; 0.25; 0.30 ];
  Printf.printf
    "\n(from Eq. (1), t_fail scales as 1/duty independent of n; the constants only\n";
  Printf.printf
    " modulate the thermal coupling, so the reported improvement factors are\n";
  Printf.printf " robust to the technology parameters the paper does not publish)\n"

(* ---------- Bechamel micro-benchmarks ---------- *)

let bench_micro () =
  header "Bechamel micro-benchmarks (one per table/figure pipeline stage)";
  let open Bechamel in
  let tiny = Benchmarks.tiny () in
  let tiny_baseline = Placer.aging_unaware tiny in
  let b1 = Benchmarks.generate (Option.get (Benchmarks.find "B1")) in
  let b1_baseline = Placer.aging_unaware b1 in
  let tests =
    [
      (* Table I inner loop: the full Algorithm-1 flow. *)
      Test.make ~name:"table1/remap-B1"
        (Staged.stage (fun () -> ignore (Remap.solve ~mode:Rotation.Freeze b1 b1_baseline)));
      (* Fig. 2a: stress accounting. *)
      Test.make ~name:"fig2a/stress-accumulate"
        (Staged.stage (fun () -> ignore (Stress.accumulated tiny tiny_baseline)));
      (* Fig. 2b: NBTI curve + MTTF solve. *)
      Test.make ~name:"fig2b/mttf-eval"
        (Staged.stage (fun () -> ignore (Mttf.of_mapping tiny tiny_baseline)));
      (* Fig. 4: rotation planning. *)
      Test.make ~name:"fig4/rotate-plan"
        (Staged.stage (fun () -> ignore (Rotation.rotate_reference tiny tiny_baseline)));
      (* Fig. 5 regroups Table I; its unit of work is the thermal solve. *)
      Test.make ~name:"fig5/thermal-steady-state"
        (Staged.stage (fun () -> ignore (Thermal.pe_temperatures tiny tiny_baseline)));
      (* Substrates: timing analysis and baseline placement. *)
      Test.make ~name:"substrate/timing-cpd"
        (Staged.stage (fun () -> ignore (Analysis.cpd b1 b1_baseline)));
      Test.make ~name:"substrate/placer-greedy"
        (Staged.stage (fun () -> ignore (Placer.greedy b1)));
    ]
  in
  List.iter
    (fun test ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-32s %14.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "%-32s (no estimate)\n%!" name)
        (List.sort
           (fun (a, _) (b, _) -> compare a b)
           (Hashtbl.fold (fun name r acc -> (name, r) :: acc) analyzed [])))
    tests

(* ---------- presolve: reductions over the 28 Table-I formulations ---------- *)

(* For every benchmark: build the full Eq.(3) formulation, presolve
   it, and solve the MILP twice (presolve off/on, shared node and
   wall-clock budget). The presolved solve's solution — postsolved
   back to the original variable space by [Milp] — is certified
   against the ORIGINAL model by the exact-rational [Certify] layer,
   which is what "the reductions are sound" means operationally. *)
let bench_presolve () =
  header "presolve: Eq.(3) reductions + certified postsolve, 28 benchmarks";
  let module Presolve = Agingfp_lp.Presolve in
  let module Certify = Agingfp_lp.Certify in
  let module Budget = Agingfp_util.Budget in
  let designs =
    Benchmarks.tiny ()
    :: (Array.to_list Benchmarks.table1
       |> List.filter (fun s -> (not !quick) || s.Benchmarks.dim <= 8)
       |> List.map (fun s -> Benchmarks.generate s))
  in
  let nnz_of model =
    let n = ref 0 in
    LpModel.iter_constraints model (fun _ lhs _ _ ->
        n := !n + List.length (LpExpr.terms lhs));
    !n
  in
  let certified = ref 0 and attempted = ref 0 and status_mismatches = ref 0 in
  let agg = ref Presolve.no_reductions in
  let table = ref [] in
  List.iter
    (fun design ->
      let name = Design.name design in
      let baseline = Placer.aging_unaware design in
      let inst, _st = Remap.build_formulation ~mode:Rotation.Freeze design baseline in
      let model = Ilp_model.model inst in
      let rows0 = LpModel.num_constraints model and vars0 = LpModel.num_vars model in
      let nnz0 = nnz_of model in
      let out, pre_dt = time_it (fun () -> Presolve.run model) in
      match out with
      | Presolve.Proven_infeasible msg ->
        (* Some Freeze-mode joint formulations are genuinely infeasible
           (Remap's degradation ladder handles those downstream); the
           claim counts as certified when the plain solver agrees. *)
        let params =
          {
            Milp.default_params with
            Milp.presolve = false;
            Milp.node_limit = 150;
            budget = Budget.create ~deadline_s:10.0 ();
          }
        in
        incr attempted;
        (match Milp.solve ~params model with
        | Milp.Infeasible ->
          incr certified;
          Printf.printf "%-5s presolve proved infeasible (%s); solver agrees\n%!" name
            msg
        | Milp.Feasible _ ->
          incr status_mismatches;
          Printf.printf "%-5s STATUS MISMATCH: presolve says infeasible (%s), solver found a point\n%!"
            name msg
        | Milp.Unknown ->
          Printf.printf "%-5s presolve proved infeasible (%s); solver ran out of budget\n%!"
            name msg)
      | Presolve.Reduced p ->
        let r = Presolve.reductions p in
        agg := Presolve.add_reductions !agg r;
        let solve presolve =
          let params =
            {
              Milp.default_params with
              Milp.node_limit = 150;
              presolve;
              budget = Budget.create ~deadline_s:3.0 ();
            }
          in
          fst (time_it (fun () -> Milp.solve_with_stats ~params model))
        in
        let res_off, s_off = solve false in
        let res_on, s_on = solve true in
        incr attempted;
        (match (res_off, res_on) with
        | Milp.Feasible _, Milp.Infeasible | Milp.Infeasible, Milp.Feasible _ ->
          incr status_mismatches;
          Printf.printf "%-5s STATUS MISMATCH: presolve off/on disagree\n%!" name
        | _ -> ());
        (match res_on with
        | Milp.Feasible _ -> (
          match Certify.result model res_on with
          | Certify.Certified -> incr certified
          | v ->
            Printf.printf "%-5s certify FAILED: %s\n%!" name
              (Format.asprintf "%a" Certify.pp_verdict v))
        | Milp.Infeasible | Milp.Unknown -> (
          (* No incumbent within the ablation budget (the joint MILP of
             the biggest fabrics is normally decomposed per-context by
             Remap, never solved whole). Certify presolve∘postsolve on
             the LP relaxation instead: solve the REDUCED LP, map the
             point back, and exact-check it against the ORIGINAL
             model's rows, bounds and objective. *)
          let sp =
            {
              Simplex.default_params with
              Simplex.budget = Budget.create ~deadline_s:120.0 ();
            }
          in
          match Simplex.solve ~params:sp (Presolve.reduced p) with
          | Simplex.Optimal sol -> (
            let x = Presolve.postsolve p sol.Simplex.values in
            match
              Certify.solution ~relaxation:true model { sol with Simplex.values = x }
            with
            | Certify.Certified ->
              incr certified;
              Printf.printf "%-5s certified via LP-relaxation postsolve\n%!" name
            | v ->
              Printf.printf "%-5s LP certify FAILED: %s\n%!" name
                (Format.asprintf "%a" Certify.pp_verdict v))
          | Simplex.Infeasible ->
            (* Integrality-based reductions may legitimately leave an
               LP-infeasible reduced problem when the joint MILP has
               no integer point (several Freeze-mode formulations are
               proven infeasible); this is a claim about the ORIGINAL
               instance, so cross-check it with the plain solver. *)
            (match res_off with
            | Milp.Infeasible ->
              incr certified;
              Printf.printf "%-5s reduced LP infeasible; plain solver agrees the MILP is\n%!"
                name
            | Milp.Feasible _ ->
              incr status_mismatches;
              Printf.printf
                "%-5s STATUS MISMATCH: reduced LP infeasible but plain solver found a point\n%!"
                name
            | Milp.Unknown ->
              Printf.printf
                "%-5s reduced LP infeasible; plain solver unresolved within budget\n%!"
                name)
          | s ->
            Printf.printf "%-5s reduced LP did not reach optimality (%s)\n%!" name
              (match s with
              | Simplex.Unbounded -> "unbounded"
              | Simplex.Iteration_limit -> "iteration limit"
              | Simplex.Deadline -> "deadline"
              | Simplex.Fault f -> "fault: " ^ f
              | Simplex.Infeasible | Simplex.Optimal _ -> assert false)));
        table :=
          [|
            name;
            Printf.sprintf "%dx%d" rows0 vars0;
            string_of_int nnz0;
            string_of_int r.Presolve.rows_removed;
            string_of_int (r.Presolve.vars_fixed + r.Presolve.vars_substituted);
            string_of_int (r.Presolve.nnz_removed - r.Presolve.nnz_fillin);
            Printf.sprintf "%d>%d" s_off.Milp.nodes s_on.Milp.nodes;
            Printf.sprintf "%d>%d" s_off.Milp.lp_iterations s_on.Milp.lp_iterations;
            Printf.sprintf "%.3f" pre_dt;
          |]
          :: !table)
    designs;
  print_endline
    (Ascii_table.render
       ~header:
         [|
           "bench"; "rows x vars"; "nnz"; "-rows"; "-vars"; "nnz net"; "nodes off>on";
           "iters off>on"; "presolve s";
         |]
       (List.rev !table));
  Format.printf "aggregate: %a@.per-rule:@.  @[<v>%a@]@." Presolve.pp_reductions !agg
    Presolve.pp_per_rule !agg;
  Printf.printf "certified %d/%d original-space solutions, %d status mismatches\n%!"
    !certified !attempted !status_mismatches

(* ---------- smoke-lp: cold vs. warm branch & bound ---------- *)

(* One mid-size Eq.(3)-shaped MILP solved twice with identical
   parameters except [warm_start] — machine-readable trajectory record
   in BENCH_lp.json. The generator mirrors the formulation-(3)
   structure presolve exploits: one-hot assignment rows where frozen
   critical-path operations have a single candidate (singleton rows
   whose fixings cascade through the capacity rows) and contested
   operations only two, per-(ctx,PE) capacity rows, tight per-PE
   stress knapsacks, per-PE wear-bookkeeping variables (continuous,
   defined by one equality each — implied-free), and Eq.(5)
   displacement rows over path-endpoint pairs, some clique-redundant
   and some tight enough to strengthen. *)
let bench_smoke_lp () =
  header "smoke-lp: presolve + warm-started B&B on an Eq.(3)-shaped MILP";
  let contexts = 6 and ops = 10 and npes = 16 in
  let side = 4 in
  (* npes = side * side *)
  let grid_disp a b = abs ((a mod side) - (b mod side)) + abs ((a / side) - (b / side)) in
  let seed = ref 987654321 in
  let rand n =
    seed := ((1103515245 * !seed) + 12345) land 0x3FFFFFFF;
    !seed mod n
  in
  let lp = LpModel.create () in
  let stress_terms = Array.make npes [] in
  let cap = Hashtbl.create 64 in
  let obj = ref LpExpr.zero in
  let total_stress = ref 0.0 in
  (* cands.(ctx).(op) = (pe, var, displacement from home) list *)
  let cands = Array.init contexts (fun _ -> Array.make ops []) in
  (* Homes form a per-context permutation, so "every op at home" is a
     feasible witness for the assignment + capacity rows (and, at zero
     displacement, for every path row); [home_load] makes the stress
     budget cover that witness too. *)
  let home_load = Array.make npes 0.0 in
  let base_perm = Array.init npes (fun i -> i) in
  for i = npes - 1 downto 1 do
    let j = rand (i + 1) in
    let t = base_perm.(i) in
    base_perm.(i) <- base_perm.(j);
    base_perm.(j) <- t
  done;
  for ctx = 0 to contexts - 1 do
    (* Rotating one base permutation spreads the home load evenly
       across PEs, as the paper's rotation scheduler does. *)
    let perm = Array.init npes (fun i -> base_perm.((i + (3 * ctx)) mod npes)) in
    for op = 0 to ops - 1 do
      let st_op = 0.5 +. (float_of_int (rand 100) /. 100.0) in
      total_stress := !total_stress +. st_op;
      (* Frozen ops keep their single (home) candidate; contested ops
         have two; the rest four — Table I's mix of pinned
         critical-path operations and movable ones. *)
      let ncand = match rand 10 with 0 | 1 -> 1 | 2 | 3 -> 2 | _ -> 4 in
      let home = perm.(op) in
      home_load.(home) <- home_load.(home) +. st_op;
      let terms = ref [] in
      let used = Array.make npes false in
      for c = 0 to ncand - 1 do
        let pe = ref (if c = 0 then home else rand npes) in
        while used.(!pe) do
          pe := (!pe + 1) mod npes
        done;
        used.(!pe) <- true;
        let v = LpModel.add_binary ~name:(Printf.sprintf "x_%d_%d_%d" ctx op !pe) lp in
        terms := LpExpr.var v :: !terms;
        cands.(ctx).(op) <- (!pe, v, grid_disp !pe home) :: cands.(ctx).(op);
        stress_terms.(!pe) <- (st_op, v) :: stress_terms.(!pe);
        let key = (ctx, !pe) in
        let cur = try Hashtbl.find cap key with Not_found -> [] in
        Hashtbl.replace cap key (v :: cur);
        obj := LpExpr.add_term !obj (float_of_int (rand 1000) /. 1000.0) v
      done;
      ignore (LpModel.add_constraint lp (LpExpr.sum !terms) LpModel.Eq 1.0)
    done
  done;
  List.iter
    (fun (_, vs) ->
      match vs with
      | [] | [ _ ] -> ()
      | vs ->
        ignore
          (LpModel.add_constraint lp (LpExpr.sum (List.map LpExpr.var vs)) LpModel.Le 1.0))
    (List.sort
       (fun (a, _) (b, _) -> compare a b)
       (Hashtbl.fold (fun k vs acc -> (k, vs) :: acc) cap []));
  (* Tight budgets force fractional LP vertices, hence real branching;
     covering the all-at-home witness keeps the instance feasible. *)
  let budget =
    Float.max
      (!total_stress /. float_of_int npes *. 1.35)
      (Array.fold_left Float.max 0.0 home_load)
  in
  for pe = 0 to npes - 1 do
    match stress_terms.(pe) with
    | [] -> ()
    | terms ->
      let lhs = LpExpr.sum (List.map (fun (c, v) -> LpExpr.var ~coef:c v) terms) in
      ignore (LpModel.add_constraint lp lhs LpModel.Le budget)
  done;
  (* Per-PE wear bookkeeping: s_pe = accumulated stress, one defining
     equality each, lightly priced in the objective. Unbudgeted (the
     knapsacks above already bound the load), so each s_pe is
     implied-free and presolve substitutes it away. *)
  for pe = 0 to npes - 1 do
    match stress_terms.(pe) with
    | [] -> ()
    | terms ->
      let s =
        LpModel.add_var ~name:(Printf.sprintf "wear_%d" pe) ~lb:0.0 ~ub:100.0
          ~kind:LpModel.Continuous lp
      in
      let lhs =
        LpExpr.sub
          (LpExpr.sum (List.map (fun (c, v) -> LpExpr.var ~coef:c v) terms))
          (LpExpr.var s)
      in
      ignore (LpModel.add_constraint lp lhs LpModel.Eq 0.0);
      obj := LpExpr.add_term !obj 0.01 s
  done;
  (* Eq.(5) displacement rows over path-endpoint pairs (op 2i, 2i+1):
     each candidate contributes its displacement from home. Even
     pairs get a generous budget — redundant once the one-hot cliques
     cap each endpoint's contribution at its worst single candidate —
     odd pairs a tight one that excludes the worst combinations
     (probing and coefficient strengthening territory). *)
  let n_path_rows = ref 0 in
  for ctx = 0 to contexts - 1 do
    for pair = 0 to (ops / 2) - 1 do
      let u = 2 * pair and v = (2 * pair) + 1 in
      let dterms =
        List.concat_map
          (fun (_, x, d) -> if d > 0 then [ (float_of_int d, x) ] else [])
          (cands.(ctx).(u) @ cands.(ctx).(v))
      in
      let max_disp l =
        List.fold_left (fun a (_, _, d) -> max a d) 0 l
      in
      let du = max_disp cands.(ctx).(u) and dv = max_disp cands.(ctx).(v) in
      if dterms <> [] && du + dv > 0 then begin
        let budget =
          if pair mod 2 = 0 then float_of_int (du + dv) (* clique-redundant *)
          else float_of_int (max 1 (max du dv + 1 - (rand 2))) (* tight *)
        in
        ignore
          (LpModel.add_constraint lp
             (LpExpr.sum (List.map (fun (c, x) -> LpExpr.var ~coef:c x) dterms))
             LpModel.Le budget);
        incr n_path_rows
      end
    done
  done;
  LpModel.set_objective lp LpModel.Minimize !obj;
  Printf.printf
    "instance: %d vars (%d wear), %d rows (%d path), per-PE budget %.3f\n%!"
    (LpModel.num_vars lp) npes (LpModel.num_constraints lp) !n_path_rows budget;
  let run ?(presolve = true) ?(label = "") warm =
    (* Cuts and heuristics are benchmarked in their own ablation below;
       keep the presolve/warm legs measuring exactly what they always
       did. *)
    let params =
      {
        Milp.default_params with
        Milp.node_limit = 400;
        first_solution = false;
        warm_start = warm;
        presolve;
        cuts = false;
        heuristics = false;
      }
    in
    let (result, stats), dt = time_it (fun () -> Milp.solve_with_stats ~params lp) in
    let objective =
      match result with Milp.Feasible sol -> sol.Agingfp_lp.Simplex.objective | _ -> nan
    in
    Printf.printf "%-6s %-28s %6.3fs | %s\n%!"
      (if label <> "" then label else if warm then "warm" else "cold")
      (Format.asprintf "%a" Milp.pp_result result)
      dt
      (Format.asprintf "%a" Milp.pp_stats stats);
    (objective, stats, dt)
  in
  (* Presolve ablation first: the same cold solve with the pass off. *)
  let nopre_obj, nopre_stats, nopre_dt = run ~presolve:false ~label:"nopre" false in
  let cold_obj, cold_stats, cold_dt = run false in
  let warm_obj, warm_stats, warm_dt = run true in
  if abs_float (nopre_obj -. cold_obj) > 1e-6 then
    Printf.printf "WARNING: presolve changed the optimum (%.6f vs %.6f)\n" nopre_obj
      cold_obj;
  Printf.printf "presolve ablation: %d -> %d nodes, %d -> %d LP iterations (%.3fs -> %.3fs)\n%!"
    nopre_stats.Milp.nodes cold_stats.Milp.nodes nopre_stats.Milp.lp_iterations
    cold_stats.Milp.lp_iterations nopre_dt cold_dt;
  Format.printf "per-rule: @[<v>%a@]@."
    Agingfp_lp.Presolve.pp_per_rule cold_stats.Milp.presolve;
  let row label (stats : Milp.stats) dt obj =
    [|
      label;
      string_of_int stats.Milp.nodes;
      string_of_int stats.Milp.warm_solves;
      string_of_int stats.Milp.cold_solves;
      string_of_int stats.Milp.lp_iterations;
      Printf.sprintf "%.3f" dt;
      Printf.sprintf "%.4f" obj;
    |]
  in
  print_endline
    (Ascii_table.render
       ~header:[| "mode"; "nodes"; "warm"; "cold"; "LP iters"; "seconds"; "objective" |]
       [ row "cold" cold_stats cold_dt cold_obj; row "warm" warm_stats warm_dt warm_obj ]);
  if abs_float (cold_obj -. warm_obj) > 1e-6 then
    Printf.printf "WARNING: cold and warm objectives differ (%.6f vs %.6f)\n" cold_obj
      warm_obj;
  if warm_stats.Milp.warm_solves = 0 then
    Printf.printf "WARNING: warm run performed no warm solves\n";
  (* Cut separation + heuristic seeding ablation on the same instance
     and the same warm search: the bare search, cuts alone, then the
     full stack. Every leg must land on the same optimum — cuts are
     accelerations, not relaxations. *)
  header "smoke-lp: Gomory/cover separation + diving/pump ablation";
  let run_cuts label cuts heuristics =
    let params =
      {
        Milp.default_params with
        Milp.node_limit = 400;
        first_solution = false;
        cuts;
        heuristics;
      }
    in
    let (result, stats), dt = time_it (fun () -> Milp.solve_with_stats ~params lp) in
    let objective =
      match result with Milp.Feasible sol -> sol.Agingfp_lp.Simplex.objective | _ -> nan
    in
    (label, objective, stats, dt)
  in
  let cut_legs =
    [
      run_cuts "off" false false;
      run_cuts "cuts" true false;
      run_cuts "cuts+heur" true true;
    ]
  in
  let jgap g = if Float.is_finite g then Printf.sprintf "%.4f" g else "null" in
  print_endline
    (Ascii_table.render
       ~header:
         [|
           "cuts"; "nodes"; "LP iters"; "separated"; "active"; "aged"; "heur";
           "root gap closed"; "seconds"; "objective";
         |]
       (List.map
          (fun (label, obj, (s : Milp.stats), dt) ->
            [|
              label;
              string_of_int s.Milp.nodes;
              string_of_int s.Milp.lp_iterations;
              string_of_int s.Milp.cuts_separated;
              string_of_int s.Milp.cuts_active;
              string_of_int s.Milp.cuts_aged_out;
              string_of_int s.Milp.heuristic_incumbents;
              jgap s.Milp.root_gap_closed;
              Printf.sprintf "%.3f" dt;
              Printf.sprintf "%.4f" obj;
            |])
          cut_legs));
  List.iter
    (fun (label, obj, _, _) ->
      if abs_float (obj -. cold_obj) > 1e-6 then
        Printf.printf "WARNING: cuts leg %s changed the optimum (%.6f vs %.6f)\n" label
          obj cold_obj)
    cut_legs;
  (match List.rev cut_legs with
  | (_, _, full_stats, _) :: _ ->
    if full_stats.Milp.nodes >= warm_stats.Milp.nodes && warm_stats.Milp.nodes > 1 then
      Printf.printf "WARNING: full cut+heuristic stack did not reduce nodes (%d vs %d)\n"
        full_stats.Milp.nodes warm_stats.Milp.nodes;
    (match
       List.find_opt (fun (l, _, _, _) -> l = "cuts") cut_legs
     with
    | Some (_, _, s, _)
      when Float.is_finite s.Milp.root_gap_closed && s.Milp.root_gap_closed <= 0.0 ->
      Printf.printf "WARNING: cut rounds closed none of the root gap\n"
    | _ -> ())
  | [] -> ());
  (* Kernel scenario: the same instance solved with the dense
     reference basis inverse and with the sparse LU kernel. Both use
     the warm-started B&B; only [lp_params.kernel] differs. Per-pivot
     time is the honest metric — total seconds also move with node
     ordering noise, pivots don't. *)
  header "smoke-lp: dense reference vs sparse LU basis kernel";
  let run_kernel kind =
    let params =
      {
        Milp.default_params with
        Milp.lp_params = { Milp.default_params.Milp.lp_params with Simplex.kernel = kind };
        node_limit = 400;
        first_solution = false;
      }
    in
    let (result, stats), dt = time_it (fun () -> Milp.solve_with_stats ~params lp) in
    let objective =
      match result with Milp.Feasible sol -> sol.Agingfp_lp.Simplex.objective | _ -> nan
    in
    (objective, stats, dt)
  in
  let dense_obj, dense_stats, dense_dt = run_kernel Basis.Dense in
  let sparse_obj, sparse_stats, sparse_dt = run_kernel Basis.Sparse_lu in
  let per_pivot_us dt (stats : Milp.stats) =
    dt /. float_of_int (max 1 stats.Milp.lp_iterations) *. 1e6
  in
  let kernel_row label (stats : Milp.stats) dt obj =
    [|
      label;
      string_of_int stats.Milp.lp_iterations;
      Printf.sprintf "%.3f" dt;
      Printf.sprintf "%.3f" (per_pivot_us dt stats);
      string_of_int stats.Milp.refactorizations;
      string_of_int stats.Milp.eta_updates;
      string_of_int stats.Milp.fill_in;
      Printf.sprintf "%.4f" obj;
    |]
  in
  print_endline
    (Ascii_table.render
       ~header:
         [|
           "kernel"; "LP iters"; "seconds"; "us/pivot"; "refactor"; "etas"; "peak fill";
           "objective";
         |]
       [
         kernel_row "dense" dense_stats dense_dt dense_obj;
         kernel_row "sparse-lu" sparse_stats sparse_dt sparse_obj;
       ]);
  Printf.printf "kernel speedup %.2fx wall, %.2fx per pivot, fill %d -> %d nnz\n%!"
    (dense_dt /. sparse_dt)
    (per_pivot_us dense_dt dense_stats /. per_pivot_us sparse_dt sparse_stats)
    dense_stats.Milp.fill_in sparse_stats.Milp.fill_in;
  if abs_float (dense_obj -. sparse_obj) > 1e-6 then
    Printf.printf "WARNING: dense and sparse objectives differ (%.6f vs %.6f)\n" dense_obj
      sparse_obj;
  (* Deadline scenario: the remap ladder under a hard wall-clock
     budget. Latency distribution (the robustness claim is about the
     tail, hence p99) plus which rung each run ended on. *)
  header "smoke-lp: deadline-bounded remap ladder";
  (* Small enough to bind on B18, large enough that one uninterruptible
     unit of work (a context pack, the final audit) fits the 2x margin. *)
  let deadline_s = 0.5 in
  let runs_per_design = if !quick then 5 else 15 in
  (* B18 (16x16, 16 contexts) cannot finish its full MILP in 0.25s,
     so the tail of the distribution exercises the ladder for real. *)
  let deadline_designs =
    [ Benchmarks.tiny () ]
    @ List.filter_map
        (fun n -> Option.map Benchmarks.generate (Benchmarks.find n))
        [ "B4"; "B18" ]
  in
  let rung_counts = Hashtbl.create 8 in
  let samples = ref [] in
  List.iter
    (fun design ->
      let baseline = Placer.aging_unaware design in
      let params =
        { Remap.default_params with Remap.deadline_s = Some deadline_s }
      in
      for _ = 1 to runs_per_design do
        let r, dt =
          time_it (fun () -> Remap.solve ~params ~mode:Rotation.Freeze design baseline)
        in
        samples := dt :: !samples;
        let key = Remap.rung_to_string r.Remap.rung in
        Hashtbl.replace rung_counts key
          (1 + try Hashtbl.find rung_counts key with Not_found -> 0)
      done)
    deadline_designs;
  let sorted = Array.of_list !samples in
  Array.sort Float.compare sorted;
  let percentile p =
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
  in
  let p50 = percentile 0.50 and p99 = percentile 0.99 in
  let rung_rows =
    [ "full-milp"; "relax-and-fix"; "lp-rounding"; "heuristic"; "baseline" ]
    |> List.map (fun r ->
           (r, try Hashtbl.find rung_counts r with Not_found -> 0))
  in
  Printf.printf "deadline %.2fs, %d runs over %d designs: p50 %.3fs, p99 %.3fs, max %.3fs\n"
    deadline_s (Array.length sorted)
    (List.length deadline_designs)
    p50 p99
    sorted.(Array.length sorted - 1);
  List.iter (fun (r, n) -> if n > 0 then Printf.printf "  rung %-13s %d\n" r n) rung_rows;
  if sorted.(Array.length sorted - 1) > 2.0 *. deadline_s then
    Printf.printf "WARNING: a run exceeded twice the deadline\n";
  (* Parallel scenario: the same Eq.(3)-shaped MILP under the
     domain-parallel branch & bound at 1/2/4 domains, plus the suite
     fan-out (independent benchmarks on the pool). Speedups are
     reported next to [domains_available] — on a single-core host the
     honest expectation is ~1.0x, and the scenario then checks
     correctness (identical optimal objective) rather than scaling. *)
  header "smoke-lp: domain-parallel branch & bound scaling";
  let domains_available = Domain.recommended_domain_count () in
  let run_jobs jobs =
    (* Node headroom well past what either search order needs, so every
       leg runs to proven optimality and the objectives must coincide
       exactly; best-of-3 wall time filters OS scheduling noise, which
       dominates when domains outnumber cores. *)
    let params =
      {
        Milp.default_params with
        Milp.node_limit = 4_000;
        first_solution = false;
        jobs;
      }
    in
    let one () =
      let (result, _), dt = time_it (fun () -> Milp.solve_with_stats ~params lp) in
      let objective =
        match result with Milp.Feasible sol -> sol.Agingfp_lp.Simplex.objective | _ -> nan
      in
      (dt, objective)
    in
    let legs = List.init 3 (fun _ -> one ()) in
    let dt = List.fold_left (fun a (t, _) -> min a t) infinity legs in
    let objective = snd (List.hd legs) in
    List.iter
      (fun (_, o) ->
        if abs_float (o -. objective) > 1e-6 then
          Printf.printf "WARNING: jobs=%d repetitions disagree (%.6f vs %.6f)\n" jobs o
            objective)
      legs;
    Printf.printf "  jobs=%d  %6.3fs (best of 3)  objective %.4f\n%!" jobs dt objective;
    (jobs, dt, objective)
  in
  let milp_legs = List.map run_jobs [ 1; 2; 4 ] in
  let _, base_dt, base_obj = List.hd milp_legs in
  List.iter
    (fun (j, _, obj) ->
      if abs_float (obj -. base_obj) > 1e-6 then
        Printf.printf "WARNING: jobs=%d objective differs (%.6f vs %.6f)\n" j obj base_obj)
    milp_legs;
  let suite_designs =
    [ Benchmarks.tiny () ]
    @ List.filter_map
        (fun n -> Option.map Benchmarks.generate (Benchmarks.find n))
        [ "B1"; "B4" ]
  in
  let suite_tasks =
    Array.of_list
      (List.map
         (fun design () ->
           let baseline = Placer.aging_unaware design in
           ignore (Remap.solve ~mode:Rotation.Freeze design baseline))
         suite_designs)
  in
  let suite_run jobs =
    let _, dt =
      time_it (fun () ->
          if jobs = 1 then Array.iter (fun f -> f ()) suite_tasks
          else Pool.run (Pool.get jobs) suite_tasks)
    in
    Printf.printf "  suite fan-out jobs=%d  %6.3fs (%d benchmarks)\n%!" jobs dt
      (Array.length suite_tasks);
    dt
  in
  let suite_1 = suite_run 1 in
  let suite_4 = suite_run 4 in
  Printf.printf
    "domains available: %d; B&B speedup at 4 domains %.2fx; suite fan-out %.2fx\n%!"
    domains_available
    (base_dt /. (let _, dt, _ = List.nth milp_legs 2 in dt))
    (suite_1 /. suite_4);
  (* Tree scenario: the gap-at-time curves show how fast each job
     count closes the dual gap of the explicit-node search under a hard
     deadline. *)
  header "smoke-lp: explicit tree search — gap at time";
  let module UBudget = Agingfp_util.Budget in
  (* A bare search: with root cuts the instance closes in a handful of
     nodes and every curve looks the same. *)
  let tree_params =
    {
      Milp.default_params with
      Milp.node_limit = 100_000;
      first_solution = false;
      cuts = false;
      heuristics = false;
    }
  in
  let deadlines = if !quick then [ 0.01; 0.05 ] else [ 0.005; 0.01; 0.025; 0.05; 0.1 ] in
  let gap_curves =
    List.map
      (fun jobs ->
        let curve =
          List.map
            (fun t ->
              let params =
                {
                  tree_params with
                  Milp.jobs;
                  budget = UBudget.create ~deadline_s:t ();
                }
              in
              let (_, stats), dt = time_it (fun () -> Milp.solve_with_stats ~params lp) in
              (t, stats.Milp.gap, stats.Milp.nodes,
               float_of_int stats.Milp.nodes /. Float.max dt 1e-6))
            deadlines
        in
        Printf.printf "  gap-at-time jobs=%d: %s\n%!" jobs
          (String.concat "  "
             (List.map
                (fun (t, g, n, _) ->
                  Printf.sprintf "%.3fs->%s(%dn)" t
                    (if Float.is_finite g then Printf.sprintf "%.2g" g else "inf")
                    n)
                curve));
        (jobs, curve))
      [ 1; 2; 4 ]
  in
  let json_leg (stats : Milp.stats) dt =
    Printf.sprintf
      "{\"seconds\": %.4f, \"nodes\": %d, \"lp_iterations\": %d, \"warm_solves\": %d, \
       \"cold_solves\": %d}"
      dt stats.Milp.nodes stats.Milp.lp_iterations stats.Milp.warm_solves
      stats.Milp.cold_solves
  in
  let json_kernel (stats : Milp.stats) dt =
    Printf.sprintf
      "{\"seconds\": %.4f, \"lp_iterations\": %d, \"us_per_pivot\": %.4f, \
       \"refactorizations\": %d, \"drift_refreshes\": %d, \"eta_updates\": %d, \
       \"peak_fill_nnz\": %d}"
      dt stats.Milp.lp_iterations (per_pivot_us dt stats) stats.Milp.refactorizations
      stats.Milp.drift_refreshes stats.Milp.eta_updates stats.Milp.fill_in
  in
  let tree_json =
    let jf g = if Float.is_finite g then Printf.sprintf "%.6g" g else "null" in
    Printf.sprintf "{\"gap_at_time\": [%s]}"
      (String.concat ", "
         (List.map
            (fun (jobs, curve) ->
              Printf.sprintf "{\"jobs\": %d, \"curve\": [%s]}" jobs
                (String.concat ", "
                   (List.map
                      (fun (t, g, n, nps) ->
                        Printf.sprintf
                          "{\"deadline_s\": %.4f, \"gap\": %s, \"nodes\": %d, \
                           \"nodes_per_s\": %.1f}"
                          t (jf g) n nps)
                      curve)))
            gap_curves))
  in
  let cuts_json =
    let jf g = if Float.is_finite g then Printf.sprintf "%.6g" g else "null" in
    let leg (label, obj, (s : Milp.stats), dt) =
      Printf.sprintf
        "\"%s\": {\"seconds\": %.4f, \"nodes\": %d, \"lp_iterations\": %d, \
         \"cuts_separated\": %d, \"cuts_active\": %d, \"cuts_aged_out\": %d, \
         \"heuristic_incumbents\": %d, \"root_gap_closed\": %s, \"objective\": %.4f}"
        label dt s.Milp.nodes s.Milp.lp_iterations s.Milp.cuts_separated
        s.Milp.cuts_active s.Milp.cuts_aged_out s.Milp.heuristic_incumbents
        (jf s.Milp.root_gap_closed) obj
    in
    Printf.sprintf "{%s}" (String.concat ",\n           " (List.map leg cut_legs))
  in
  let oc = open_out "BENCH_lp.json" in
  let p = cold_stats.Milp.presolve in
  let per_rule_json =
    String.concat ", "
      (List.filter_map
         (fun (name, r) ->
           if r.Agingfp_lp.Presolve.applications = 0 then None
           else
             Some
               (Printf.sprintf
                  "\"%s\": {\"applications\": %d, \"rows\": %d, \"vars\": %d, \
                   \"coeffs\": %d}"
                  name r.Agingfp_lp.Presolve.applications
                  r.Agingfp_lp.Presolve.rows_touched r.Agingfp_lp.Presolve.vars_touched
                  r.Agingfp_lp.Presolve.coeffs_touched))
         p.Agingfp_lp.Presolve.per_rule)
  in
  Printf.fprintf oc
    "{\n\
    \  \"instance\": {\"binaries\": %d, \"rows\": %d},\n\
    \  \"presolve\": {\"rounds\": %d, \"rows_removed\": %d, \"vars_fixed\": %d, \
     \"vars_substituted\": %d, \"bounds_tightened\": %d, \"coeffs_strengthened\": %d, \
     \"probe_fixings\": %d, \"nnz_removed\": %d, \"nnz_fillin\": %d,\n\
    \               \"ablation\": {\"nodes_off\": %d, \"nodes_on\": %d, \
     \"lp_iterations_off\": %d, \"lp_iterations_on\": %d, \"seconds_off\": %.4f, \
     \"seconds_on\": %.4f},\n\
    \               \"per_rule\": {%s}},\n\
    \  \"cold\": %s,\n\
    \  \"warm\": %s,\n\
    \  \"cuts\": %s,\n\
    \  \"speedup\": %.3f,\n\
    \  \"iteration_ratio\": %.3f,\n\
    \  \"kernel\": {\"dense\": %s,\n\
    \             \"sparse_lu\": %s,\n\
    \             \"wall_speedup\": %.3f, \"pivot_speedup\": %.3f},\n\
    \  \"deadline\": {\"deadline_s\": %.3f, \"runs\": %d, \"p50_s\": %.4f, \"p99_s\": \
     %.4f, \"max_s\": %.4f, \"rungs\": {%s}},\n\
    \  \"parallel\": {\"domains_available\": %d,\n\
    \               \"milp\": [%s],\n\
    \               \"suite\": {\"benchmarks\": %d, \"jobs1_s\": %.4f, \"jobs4_s\": \
     %.4f, \"speedup\": %.3f}},\n\
    \  \"tree\": %s\n\
     }\n"
    (LpModel.num_vars lp) (LpModel.num_constraints lp)
    p.Agingfp_lp.Presolve.rounds p.Agingfp_lp.Presolve.rows_removed
    p.Agingfp_lp.Presolve.vars_fixed p.Agingfp_lp.Presolve.vars_substituted
    p.Agingfp_lp.Presolve.bounds_tightened p.Agingfp_lp.Presolve.coeffs_strengthened
    p.Agingfp_lp.Presolve.probe_fixings p.Agingfp_lp.Presolve.nnz_removed
    p.Agingfp_lp.Presolve.nnz_fillin nopre_stats.Milp.nodes
    cold_stats.Milp.nodes nopre_stats.Milp.lp_iterations
    cold_stats.Milp.lp_iterations nopre_dt cold_dt per_rule_json
    (json_leg cold_stats cold_dt) (json_leg warm_stats warm_dt) cuts_json
    (cold_dt /. warm_dt)
    (float_of_int cold_stats.Milp.lp_iterations
    /. float_of_int (max 1 warm_stats.Milp.lp_iterations))
    (json_kernel dense_stats dense_dt)
    (json_kernel sparse_stats sparse_dt)
    (dense_dt /. sparse_dt)
    (per_pivot_us dense_dt dense_stats /. per_pivot_us sparse_dt sparse_stats)
    deadline_s (Array.length sorted) p50 p99
    sorted.(Array.length sorted - 1)
    (String.concat ", "
       (List.map (fun (r, n) -> Printf.sprintf "\"%s\": %d" r n) rung_rows))
    domains_available
    (String.concat ", "
       (List.map
          (fun (j, dt, obj) ->
            Printf.sprintf
              "{\"jobs\": %d, \"seconds\": %.4f, \"speedup_vs_1\": %.3f, \"objective\": \
               %.4f}"
              j dt (base_dt /. dt) obj)
          milp_legs))
    (Array.length suite_tasks) suite_1 suite_4 (suite_1 /. suite_4) tree_json;
  close_out oc;
  Printf.printf "wrote BENCH_lp.json (speedup %.2fx, iteration ratio %.2fx)\n%!"
    (cold_dt /. warm_dt)
    (float_of_int cold_stats.Milp.lp_iterations
    /. float_of_int (max 1 warm_stats.Milp.lp_iterations))

(* ---------- driver ---------- *)

(* ---------- serve: the remap daemon under load ---------- *)

(* Drives the Table-I mix through a loopback client against a live
   `agingfp serve` daemon and writes BENCH_serve.json: per-benchmark
   cold/warm service latency (client-measured, end to end), sustained
   concurrent throughput, the shed rate of an undersized instance at
   capacity, the warm-cache hit ratio, and an audit sweep across every
   injected fault class. The headline robustness claims: p99 stays
   within the per-request deadline, repeats hit the warm cache, and no
   response anywhere in the run carries an unaudited floorplan. *)
let bench_serve () =
  let module Server = Agingfp_serve.Server in
  let module Client = Agingfp_serve.Client in
  let module Inject = Agingfp_serve.Inject in
  header "serve: remap daemon service latency";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  let deadline_s = 0.6 in
  let mix =
    (("tiny", Benchmarks.tiny ())
    :: (Array.to_list Benchmarks.table1
       |> List.filter (fun (s : Benchmarks.spec) -> (not !quick) || s.Benchmarks.dim <= 8)
       |> List.map (fun (s : Benchmarks.spec) ->
              (s.Benchmarks.bname, Benchmarks.generate s))))
    |> List.map (fun (name, d) -> (name, Serial.design_to_string d))
  in
  let config =
    {
      Server.default_config with
      Server.port = 0;
      workers = 2;
      queue_capacity = 32;
      cache_capacity = 64;
    }
  in
  let server = Server.create ~config () in
  let th = Thread.create Server.run server in
  let port = Server.port server in
  let path = Printf.sprintf "/remap?deadline=%g" deadline_s in
  let post ?(path = path) body =
    match Client.request ~host:"127.0.0.1" ~port ~body path with
    | Ok r -> r
    | Error msg ->
      Printf.printf "WARNING: request failed: %s\n%!" msg;
      { Client.status = 0; headers = []; body = "" }
  in
  let audited = ref 0 and unaudited = ref 0 in
  let note_audit (r : Client.response) =
    (* Every response that carries a floorplan must say so and be
       audited; errors are exempt but counted separately. *)
    if r.Client.status = 200 || r.Client.status = 503 then
      if
        contains r.Client.body "\"audit_ok\":true"
        || Client.header "x-agingfp-audit" r = Some "pass"
      then incr audited
      else incr unaudited
  in
  (* Phase 1: cold + warm pass per benchmark, serially, with the
     client clock as the latency reference. *)
  let rows =
    List.map
      (fun (name, body) ->
        let cold, cold_s = time_it (fun () -> post body) in
        let warm, warm_s = time_it (fun () -> post body) in
        note_audit cold;
        note_audit warm;
        let rung (r : Client.response) =
          Option.value ~default:"?" (Client.header "x-agingfp-rung" r)
        in
        let cache (r : Client.response) =
          Option.value ~default:"?" (Client.header "x-agingfp-cache" r)
        in
        Printf.printf "  %-5s cold %6.3fs (%-13s) warm %6.3fs (%-13s %s)\n%!" name cold_s
          (rung cold) warm_s (rung warm) (cache warm);
        (name, cold_s, warm_s, rung cold, rung warm, cache warm))
      mix
  in
  let latencies =
    List.concat_map (fun (_, c, w, _, _, _) -> [ c; w ]) rows |> Array.of_list
  in
  Array.sort Float.compare latencies;
  let percentile p =
    let n = Array.length latencies in
    latencies.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
  in
  let p50 = percentile 0.50
  and p99 = percentile 0.99
  and worst = latencies.(Array.length latencies - 1) in
  let warm_hits =
    List.length (List.filter (fun (_, _, _, _, _, c) -> c = "hit") rows)
  in
  let hit_ratio = float_of_int warm_hits /. float_of_int (List.length rows) in
  Printf.printf
    "mix of %d designs, deadline %.2fs: p50 %.3fs p99 %.3fs max %.3fs, warm hit ratio \
     %.2f\n%!"
    (List.length mix) deadline_s p50 p99 worst hit_ratio;
  if p99 > deadline_s then Printf.printf "WARNING: p99 exceeds the request deadline\n%!";
  if hit_ratio < 0.99 then Printf.printf "WARNING: warm repeats missed the cache\n%!";
  (* Phase 2: sustained concurrent throughput on the smallest designs
     (the service overhead dominates there, which is the point). *)
  let sustained_n = if !quick then 20 else 80 in
  let client_threads = 4 in
  let small =
    List.filteri (fun i _ -> i < 3) mix |> List.map snd |> Array.of_list
  in
  let sustained = Array.make sustained_n 0.0 in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < sustained_n then begin
        let r, dt = time_it (fun () -> post small.(i mod Array.length small)) in
        note_audit r;
        sustained.(i) <- dt;
        go ()
      end
    in
    go ()
  in
  let _, sustained_wall =
    time_it (fun () ->
        let ts = List.init client_threads (fun _ -> Thread.create worker ()) in
        List.iter Thread.join ts)
  in
  Array.sort Float.compare sustained;
  let spct p =
    sustained.(min (sustained_n - 1) (int_of_float (ceil (p *. float_of_int sustained_n)) - 1))
  in
  let req_per_s = float_of_int sustained_n /. sustained_wall in
  Printf.printf
    "sustained: %d requests over %d client threads in %.2fs = %.1f req/s (p50 %.3fs p99 \
     %.3fs)\n%!"
    sustained_n client_threads sustained_wall req_per_s (spct 0.50) (spct 0.99);
  (* Phase 3: fault sweep — every class armed at full probability for
     a few requests; the run passes when nothing unaudited escapes and
     the daemon keeps serving afterwards. *)
  let fault_classes =
    [
      ("raise", { Inject.none with Inject.seed = 11; p_worker_raise = 1.0 });
      ("poison", { Inject.none with Inject.seed = 11; p_cache_poison = 1.0 });
      ("expire", { Inject.none with Inject.seed = 11; p_mid_deadline = 1.0 });
      ("slow", { Inject.none with Inject.seed = 11; slow_write_delay_s = 0.02 });
    ]
  in
  let tiny_body = List.assoc "tiny" mix in
  let fault_rows =
    List.map
      (fun (cls, spec) ->
        let statuses =
          Inject.with_spec spec (fun () ->
              List.init 3 (fun _ ->
                  let r =
                    if spec.Inject.slow_write_delay_s > 0.0 then
                      match
                        Client.request ~host:"127.0.0.1" ~port ~body:tiny_body
                          ~slow_write_delay_s:spec.Inject.slow_write_delay_s path
                      with
                      | Ok r -> r
                      | Error _ -> { Client.status = 0; headers = []; body = "" }
                    else post tiny_body
                  in
                  note_audit r;
                  r.Client.status))
        in
        let after = post tiny_body in
        note_audit after;
        Printf.printf "  fault %-6s statuses %s; serves %d afterwards\n%!" cls
          (String.concat "," (List.map string_of_int statuses))
          after.Client.status;
        (cls, statuses, after.Client.status))
      fault_classes
  in
  (* Phase 4: shed rate of a deliberately undersized instance (1
     worker, queue of 1) under a concurrent burst. *)
  let small_config =
    { config with Server.workers = 1; queue_capacity = 1 }
  in
  let small_server = Server.create ~config:small_config () in
  let small_th = Thread.create Server.run small_server in
  let small_port = Server.port small_server in
  let burst_n = if !quick then 16 else 48 in
  let served = Atomic.make 0 and shed = Atomic.make 0 and other = Atomic.make 0 in
  let burst_worker () =
    for _ = 1 to burst_n / 8 do
      match
        Client.request ~host:"127.0.0.1" ~port:small_port ~body:tiny_body path
      with
      | Ok r ->
        if r.Client.status = 429 then Atomic.incr shed
        else if r.Client.status = 200 || r.Client.status = 503 then Atomic.incr served
        else Atomic.incr other
      | Error _ -> Atomic.incr other
    done
  in
  let ts = List.init 8 (fun _ -> Thread.create burst_worker ()) in
  List.iter Thread.join ts;
  let shed_rate = float_of_int (Atomic.get shed) /. float_of_int burst_n in
  Printf.printf
    "overload (1 worker, queue 1): %d requests -> %d served, %d shed (rate %.2f), %d \
     other\n%!"
    burst_n (Atomic.get served) (Atomic.get shed) shed_rate (Atomic.get other);
  Server.request_stop small_server;
  Thread.join small_th;
  (* Server-side counters, embedded verbatim (the body is JSON). *)
  let stats_body =
    match Client.request ~meth:"GET" ~host:"127.0.0.1" ~port "/stats" with
    | Ok r when r.Client.status = 200 -> r.Client.body
    | _ -> ""
  in
  Server.request_stop server;
  Thread.join th;
  Printf.printf "faults: %d audited floorplan responses, %d unaudited\n%!" !audited
    !unaudited;
  if !unaudited > 0 then Printf.printf "WARNING: unaudited responses escaped\n%!";
  let oc = open_out "BENCH_serve.json" in
  Printf.fprintf oc "{\n  \"deadline_s\": %g,\n  \"mix\": [\n" deadline_s;
  List.iteri
    (fun i (name, c, w, rc, rw, cache) ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"cold_s\": %.4f, \"warm_s\": %.4f, \"cold_rung\": \
         \"%s\", \"warm_rung\": \"%s\", \"warm_cache\": \"%s\"}%s\n"
        name c w rc rw cache
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"p50_s\": %.4f,\n  \"p99_s\": %.4f,\n  \"max_s\": %.4f,\n" p50 p99
    worst;
  Printf.fprintf oc "  \"p99_within_deadline\": %b,\n" (p99 <= deadline_s);
  Printf.fprintf oc "  \"warm_hit_ratio\": %.4f,\n" hit_ratio;
  Printf.fprintf oc
    "  \"sustained\": {\"requests\": %d, \"client_threads\": %d, \"seconds\": %.3f, \
     \"req_per_s\": %.2f, \"p50_s\": %.4f, \"p99_s\": %.4f},\n"
    sustained_n client_threads sustained_wall req_per_s (spct 0.50) (spct 0.99);
  Printf.fprintf oc
    "  \"overload\": {\"requests\": %d, \"served\": %d, \"shed\": %d, \"shed_rate\": \
     %.3f},\n"
    burst_n (Atomic.get served) (Atomic.get shed) shed_rate;
  Printf.fprintf oc "  \"faults\": {\n";
  List.iteri
    (fun i (cls, statuses, after) ->
      Printf.fprintf oc "    \"%s\": {\"statuses\": [%s], \"serves_after\": %d}%s\n" cls
        (String.concat ", " (List.map string_of_int statuses))
        after
        (if i = List.length fault_rows - 1 then "" else ","))
    fault_rows;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"audited_responses\": %d,\n  \"unaudited_responses\": %d,\n"
    !audited !unaudited;
  Printf.fprintf oc "  \"server_stats\": %s\n}\n"
    (if stats_body = "" then "null" else stats_body);
  close_out oc;
  Printf.printf "wrote BENCH_serve.json (%.1f req/s sustained, p99 %.3fs vs deadline \
                 %.2fs)\n%!"
    req_per_s p99 deadline_s

let all_experiments =
  [
    ("table1", bench_table1);
    ("fig2a", bench_fig2a);
    ("fig2b", bench_fig2b);
    ("fig4", bench_fig4);
    ("fig5", bench_fig5);
    ("ablation-ilp", bench_ablation_ilp);
    ("ablation-naive", bench_ablation_naive);
    ("ablation-encoding", bench_ablation_encoding);
    ("ablation-decomp", bench_ablation_decomp);
    ("ablation-related", bench_ablation_related);
    ("ablation-lifetime", bench_ablation_lifetime);
    ("ablation-nbti", bench_ablation_nbti);
    ("ablation-routing", bench_ablation_routing);
    ("table1-seeds", bench_table1_seeds);
    ("smoke-lp", bench_smoke_lp);
    ("presolve", bench_presolve);
    ("serve", bench_serve);
    ("micro", bench_micro);
  ]

(* Logs reporters are not domain-safe; the parallel scenarios log from
   pool domains, so serialize the whole report path. *)
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

let () =
  Logs.set_reporter (mutex_reporter (Logs.format_reporter ()));
  Logs.set_level (Some Logs.Error);
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          quick := true;
          false
        end
        else true)
      args
  in
  let selected =
    match args with
    | [] -> all_experiments
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name all_experiments with
          | Some f -> (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" name
              (String.concat ", " (List.map fst all_experiments));
            exit 2)
        names
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) selected;
  Printf.printf "\ntotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
