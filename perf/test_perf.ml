open Perf_core

let close = Alcotest.float 1e-12

let test_quantiles () =
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let s = Stats.sorted (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 (Stats.quantile s 0.25);
  Alcotest.check close "median" 5.5 (Stats.quantile s 0.5);
  Alcotest.check close "q3" 8.25 (Stats.quantile s 0.75);
  Alcotest.check close "odd median" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "single" 4.0 (Stats.median [ 4.0 ])

let span id parent start stop =
  { Trace.id; parent; name = Printf.sprintf "s%d" id; design = "d"; start; stop }

let test_self_time () =
  (* Children overlap ([1,4] and [3,6]) and one runs past its parent's
     end ([8,12] is clipped to 10): covered = 5 + 2, so self = 3. *)
  let self spans id =
    List.assoc id
      (List.map (fun ((s : Trace.span), t) -> (s.Trace.id, t)) (Trace.self_times spans))
  in
  let flat = [ span 1 0 0.0 10.0; span 2 1 1.0 4.0; span 3 1 3.0 6.0; span 4 1 8.0 12.0 ] in
  Alcotest.check close "parent" 3.0 (self flat 1);
  Alcotest.check close "leaf" 3.0 (self flat 2);
  (* A grandchild counts only against its own parent. *)
  let nested = [ span 1 0 0.0 10.0; span 2 1 0.0 6.0; span 3 2 1.0 5.0 ] in
  Alcotest.check close "root" 4.0 (self nested 1);
  Alcotest.check close "middle" 2.0 (self nested 2)

let verdict = Alcotest.testable (Fmt.of_to_string Results.verdict_string) ( = )

let test_verdicts () =
  let base = [ 1.00; 1.01; 0.99; 1.00; 1.02; 0.98; 1.00; 1.01; 0.99; 1.00 ] in
  let v better a b = Results.verdict ~better ~bound:0.05 a b in
  Alcotest.check verdict "same runs" Results.Unchanged (v Registry.Lower base base);
  Alcotest.check verdict "20% faster" Results.Improved
    (v Registry.Lower base (List.map (fun x -> x *. 0.8) base));
  Alcotest.check verdict "20% slower" Results.Regressed
    (v Registry.Lower base (List.map (fun x -> x *. 1.2) base));
  Alcotest.check verdict "higher is better" Results.Regressed
    (v Registry.Higher base (List.map (fun x -> x *. 0.8) base));
  let noisy = [ 0.5; 1.5; 0.6; 1.4; 0.7; 1.3; 1.0; 1.0; 0.8; 1.2 ] in
  Alcotest.check verdict "spread wider than the bound" Results.Unresolved
    (v Registry.Lower noisy (List.map (fun x -> x *. 1.1) noisy));
  Alcotest.check verdict "failures may not rise" Results.Regressed
    (Results.verdict ~better:Registry.Lower ~bound:0.0 [ 0.0; 0.0; 0.0 ] [ 0.1; 0.1; 0.0 ])

let test_record_roundtrip () =
  let r =
    { Results.run = 3; workload = "suite-4x4"; metric = "setup_s"; unit_ = "s"; value = 0.1 }
  in
  match Results.of_line (Results.to_line r) with
  | Ok r' -> Alcotest.(check bool) "same record" true (r = r')
  | Error l -> Alcotest.failf "unparsed %S" l

(* The checked-in BENCHMARK.json is exactly what the registry prints, so
   every listed metric appears there with its unit, direction and bound. *)
let test_manifest () =
  let file = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  Alcotest.(check string) "BENCHMARK.json = perf.exe manifest" (Registry.manifest ()) file

(* The limits BENCHMARK.json's format puts on its fields. *)
let test_manifest_limits () =
  let alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  let name_ok s =
    String.length s <= 64
    && String.length s > 0
    && alnum s.[0]
    && String.for_all (fun c -> alnum c || String.contains "_.-" c) s
  in
  let unit_ok s =
    String.length s <= 16 && String.for_all (fun c -> alnum c || String.contains "_/%.-" c) s
  in
  let listed = List.filter Registry.listed Registry.metrics in
  let layer, e2e = List.partition (fun (m : Registry.metric) -> m.Registry.layer) listed in
  let within lo hi xs = List.length xs >= lo && List.length xs <= hi in
  Alcotest.(check bool) "1..16 end-to-end" true (within 1 16 e2e);
  Alcotest.(check bool) "1..128 per-layer" true (within 1 128 layer);
  Alcotest.(check bool) "2..8 workloads" true (within 2 8 Registry.workloads);
  let names = List.map (fun (m : Registry.metric) -> m.Registry.name) Registry.metrics in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (m : Registry.metric) ->
      Alcotest.(check bool) (m.Registry.name ^ " name") true (name_ok m.Registry.name);
      Alcotest.(check bool) (m.Registry.name ^ " unit") true (unit_ok m.Registry.unit_))
    Registry.metrics;
  List.iter
    (fun (m : Registry.metric) ->
      Alcotest.(check bool) (m.Registry.name ^ " bound") true (m.Registry.bound <= 0.25))
    e2e;
  let setup = (Option.get (Registry.find "setup_s")).Registry.bound in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun (m : Registry.metric) -> m.Registry.bound <= setup) e2e);
  List.iter
    (fun (w : Registry.workload) ->
      Alcotest.(check bool) (w.Registry.wname ^ " name") true (name_ok w.Registry.wname);
      Alcotest.(check bool) (w.Registry.wname ^ " why") true
        (String.length w.Registry.why <= 200 && not (String.contains w.Registry.why '\n')))
    Registry.workloads

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "quantiles match Python" `Quick test_quantiles;
        ] );
      ("trace", [ Alcotest.test_case "self time from nested spans" `Quick test_self_time ]);
      ( "results",
        [
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
          Alcotest.test_case "record round trip" `Quick test_record_roundtrip;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "BENCHMARK.json matches the registry" `Quick test_manifest;
          Alcotest.test_case "manifest limits" `Quick test_manifest_limits;
        ] );
    ]
