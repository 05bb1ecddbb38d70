(* The benchmark's metric and workload registry: the single source of
   BENCHMARK.json ([manifest]), of the bounds [Results.compare] gates
   on, and of the metric set a run must report ([expected]). *)

type better = Lower | Higher

(* Which workloads report a metric. Only [Every] metrics appear in
   BENCHMARK.json, which promises that every run of every workload
   reports each listed metric. *)
type scope =
  | Every
  | Unlisted
      (** every workload reports it, but BENCHMARK.json leaves it out:
          failed_frac reads 0 on a healthy run, and the daemon's heap
          peak follows how much deadline-bounded work the host's speed
          allowed (170-265 MB over ten runs) *)
  | Suites
  | Serve

type metric = {
  name : string;
  unit_ : string;
  layer : bool;  (** per-layer (traced run) rather than end-to-end *)
  better : better;
  bound : float;
      (** end-to-end only: the share of the parent's median by which
          the metric may worsen before [compare] calls it a regression *)
  scope : scope;
}

let e2e ?(scope = Every) name unit_ better bound =
  { name; unit_; layer = false; better; bound; scope }

let layer ?(scope = Every) ?(better = Lower) name unit_ =
  { name; unit_; layer = true; better; bound = nan; scope }

(* Bounds are max(floor, 3 x the largest relative deviation from the
   median over 5 same-seed runs, 3 x the quartile spread over 10
   seeds), capped at 0.25; floors are 5 % for times and rates, 2 % for
   MTTF means and 5 % for improved_frac. perf/README.md records the
   measurements behind each. setup_s carries the largest bound. *)
let metrics =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "solves_per_s" "1/s" Higher 0.25;
    e2e "latency_p50_s" "s" Lower 0.25;
    e2e "improved_frac" "ratio" Higher 0.24;
    e2e "mttf_rotate_mean" "x" Higher 0.09;
    e2e ~scope:Unlisted "peak_heap_mb" "MB" Lower 0.25;
    e2e ~scope:Unlisted "failed_frac" "ratio" Lower 0.0;
    e2e ~scope:Suites "mttf_freeze_mean" "x" Higher 0.02;
    (* Stage self times from the traced replay: median over designs. *)
    layer "place.s" "s";
    layer "timing.cpd_s" "s";
    layer "rotation.s" "s";
    layer "paths.s" "s";
    layer "candidates.s" "s";
    layer "step1.s" "s";
    layer "ilp_model.s" "s";
    layer "presolve.s" "s";
    layer "simplex.root_lp_s" "s";
    layer "remap.solver_s" "s";
    layer "refine.s" "s";
    layer "audit.s" "s";
    layer "thermal.s" "s";
    layer "mttf.s" "s";
    layer "trace.overhead_s" "s";
    layer "simplex.us_per_iter" "us";
    (* Work counters: mean per solve, from the untraced solves. *)
    layer "milp.nodes" "count";
    layer "milp.nodes_p50" "count";
    layer "milp.gap_max" "ratio";
    layer "simplex.lp_iterations" "count";
    layer "simplex.warm_solves" "count" ~better:Higher;
    layer "simplex.cold_solves" "count";
    layer "simplex.refactorizations" "count";
    layer "simplex.eta_updates" "count";
    layer "simplex.peak_fill_nnz" "count";
    layer "cuts.separated" "count";
    layer "cuts.active" "count";
    layer "heuristics.incumbents" "count" ~better:Higher;
    layer "remap.outer_iterations" "count";
    layer "remap.degradations" "count";
    layer "remap.rung.full-milp" "ratio" ~better:Higher;
    layer "remap.rung.relax-and-fix" "ratio";
    layer "remap.rung.lp-rounding" "ratio";
    layer "remap.rung.heuristic" "ratio";
    layer "remap.rung.baseline" "ratio";
    (* Model sizes and stage counters: mean per design, from the replay. *)
    layer "paths.monitored" "count";
    layer "candidates.total" "count";
    layer "ilp_model.binaries" "count";
    layer "ilp_model.rows" "count";
    layer "presolve.rows_removed" "count";
    layer "presolve.vars_fixed" "count";
    layer "refine.moves" "count" ~better:Higher;
    (* The daemon's own layers: from each reply and the client clock. *)
    layer ~scope:Serve "serve.queue_wait_s_p50" "s";
    layer ~scope:Serve "serve.solve_s_p50" "s";
    layer ~scope:Serve "serve.overhead_s_p50" "s";
    layer ~scope:Serve "serve.cold_latency_p50_s" "s";
    layer ~scope:Serve "serve.warm_latency_p50_s" "s";
    layer ~scope:Serve "serve.cache_hit_ratio" "ratio" ~better:Higher;
    layer ~scope:Serve "serve.status_503" "count";
  ]

let find name = List.find_opt (fun m -> m.name = name) metrics

(* The metrics BENCHMARK.json lists: every run of every workload
   reports them. *)
let listed m = m.scope = Every

type kind = Suite | Daemon

type workload = {
  wname : string;
  kind : kind;
  specs : string list;  (** Table-I benchmarks *)
  seeds : int;  (** design seeds per benchmark: S .. S+seeds-1 *)
  why : string;
}

let workloads =
  [
    {
      wname = "suite-4x4";
      kind = Suite;
      specs = [ "B1"; "B4"; "B7"; "B10"; "B13"; "B25" ];
      seeds = 5;
      why =
        "Remap.solve_both on 30 4x4 designs (6 Table-I benchmarks x 5 generator seeds), \
         repeated: most close by LP rounding with 0 nodes, so per-solve fixed costs \
         dominate";
    };
    {
      wname = "suite-8x8";
      kind = Suite;
      specs = [ "B5"; "B8"; "B11"; "B14"; "B20" ];
      seeds = 2;
      why =
        "Remap.solve_both on 10 8x8 designs (5 Table-I benchmarks x 2 generator seeds), \
         repeated: per-context MILPs run tens of nodes and 10k-60k LP iterations, so the \
         tree sets the time";
    };
    {
      wname = "suite-16x16";
      kind = Suite;
      specs = [ "B3"; "B21" ];
      seeds = 1;
      why =
        "Remap.solve_both on the 16x16 Table-I designs B3 and B21: few nodes but the \
         costliest LP iterations, biggest candidate sets and 256-PE thermal solves";
    };
    {
      wname = "serve-deadline";
      kind = Daemon;
      specs = List.init 27 (fun i -> Printf.sprintf "B%d" (i + 1));
      seeds = 1;
      why =
        "POST /remap?deadline=0.6&mode=rotate to an in-process daemon, 1 client: the 27 \
         Table-I designs, each sent cold then warm; exercises Step 1, the rung ladder and \
         the cache";
    };
  ]

let find_workload name = List.find_opt (fun w -> w.wname = name) workloads

(* The metrics a run of [kind] must report. *)
let expected ~layer:want_layer kind =
  List.filter
    (fun m ->
      m.layer = want_layer
      &&
      match (m.scope, kind) with
      | (Every | Unlisted), _ | Suites, Suite | Serve, Daemon -> true
      | Suites, Daemon | Serve, Suite -> false)
    metrics

(* ---------- BENCHMARK.json ---------- *)

let command = [ "sh"; "perf/run.sh"; "run" ]
let paths = [ "perf" ]
let run_seconds = 20

let better_string = function Lower -> "lower" | Higher -> "higher"

let manifest () =
  let b = Buffer.create 4096 in
  let quoted s = "\"" ^ s ^ "\"" in
  let list items = String.concat ", " items in
  let entries items = String.concat ",\n" items in
  Printf.bprintf b "{\n  \"command\": [%s],\n" (list (List.map quoted command));
  Printf.bprintf b "  \"paths\": [%s],\n" (list (List.map quoted paths));
  Printf.bprintf b "  \"run_seconds\": %d,\n" run_seconds;
  Printf.bprintf b "  \"workloads\": [\n%s\n  ],\n"
    (entries
       (List.map
          (fun w ->
            Printf.sprintf "    {\"name\": %s, \"why\": %s}" (quoted w.wname) (quoted w.why))
          workloads));
  let listed = List.filter listed metrics in
  let metric m =
    Printf.sprintf "    {\"name\": %s, \"unit\": %s, \"better\": %s%s}" (quoted m.name)
      (quoted m.unit_)
      (quoted (better_string m.better))
      (if m.layer then "" else Printf.sprintf ", \"bound\": %g" m.bound)
  in
  Printf.bprintf b "  \"end_to_end\": [\n%s\n  ],\n"
    (entries (List.map metric (List.filter (fun m -> not m.layer) listed)));
  Printf.bprintf b "  \"per_layer\": [\n%s\n  ]\n}\n"
    (entries (List.map metric (List.filter (fun m -> m.layer) listed)));
  Buffer.contents b
