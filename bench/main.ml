(* Benchmark harness: regenerates every table and figure of the paper
   plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table1       -- one experiment
     dune exec bench/main.exe -- table1 --quick   -- 4x4 + 8x8 rows only

   Experiments: table1, fig2a, fig2b, fig4, fig5, ablation-ilp,
   ablation-naive, ablation-encoding, ablation-decomp, ablation-related,
   ablation-lifetime, ablation-nbti, ablation-routing, table1-seeds,
   presolve, micro.

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

(* ---------- driver ---------- *)

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
    ("presolve", bench_presolve);
    ("micro", bench_micro);
  ]

let () =
  Logs.set_reporter (Logs.format_reporter ());
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
