(* Results files and the compare gate.

   A results file is line-oriented so that reading it back needs no
   JSON parser: one record per line, [run workload metric unit value],
   plus '#' comment lines carrying each run's machine fingerprint. *)

type record = {
  run : int;
  workload : string;
  metric : string;
  unit_ : string;
  value : float;
}

let to_line r = Printf.sprintf "%d %s %s %s %.17g" r.run r.workload r.metric r.unit_ r.value

let of_line line =
  match String.split_on_char ' ' (String.trim line) with
  | [ run; workload; metric; unit_; value ] -> (
    match (int_of_string_opt run, float_of_string_opt value) with
    | Some run, Some value -> Ok { run; workload; metric; unit_; value }
    | _ -> Error line)
  | _ -> Error line

let read path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match of_line l with
         | Ok r -> r
         | Error bad -> failwith (Printf.sprintf "%s: malformed record %S" path bad))

let append path ~comment records =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
      Printf.fprintf oc "# %s\n" comment;
      List.iter (fun r -> Printf.fprintf oc "%s\n" (to_line r)) records)

(* Runs already in the file, so that appending runs keeps numbering
   them (two sets of runs can then be made alternately). *)
let next_run path =
  if Sys.file_exists path then 1 + List.fold_left (fun acc r -> max acc r.run) 0 (read path)
  else 1

(* ---------- verdicts ---------- *)

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

(* [a] are the parent's runs and [b] the change's, both in run order
   (run i of one is paired with run i of the other). A regression is a
   median worse by more than [bound] (as a share of the parent's
   median) while the parent's own quartile spread is within the bound,
   or every run of the change reads worse than every run of the parent.
   A gain needs the change to win at least nine pairs in ten (ties
   count for neither) and the medians to differ by more than the
   parent's quartile spread. A spread wider than the bound leaves the
   metric unresolved, not unchanged, unless every run of the change
   reads better. *)
let verdict ~(better : Registry.better) ~bound a b =
  let sa = Stats.sorted a and sb = Stats.sorted b in
  let ma = Stats.quantile sa 0.5 and mb = Stats.quantile sb 0.5 in
  let iqr = Stats.quantile sa 0.75 -. Stats.quantile sa 0.25 in
  let beats x y = match better with Lower -> x < y | Higher -> x > y in
  let share d =
    if Float.equal ma 0.0 then if d > 0.0 then infinity else 0.0 else d /. Float.abs ma
  in
  let worsening = share (match better with Lower -> mb -. ma | Higher -> ma -. mb) in
  let spread = share iqr in
  let every_b f = List.for_all (fun y -> List.for_all (fun x -> f y x) a) b in
  let all_better = every_b beats and all_worse = every_b (fun y x -> beats x y) in
  let rec pairs xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> []
  in
  let ps = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) ps) in
  let gain = ps <> [] && 10 * wins >= 9 * List.length ps && Float.abs (mb -. ma) > iqr in
  if worsening > bound then
    if spread <= bound || all_worse then Regressed else Unresolved
  else if gain then Improved
  else if spread > bound && not all_better then Unresolved
  else Unchanged

(* ---------- compare ---------- *)

let values records ~workload ~metric =
  List.filter (fun r -> r.workload = workload && r.metric = metric) records
  |> List.sort (fun r s -> compare r.run s.run)
  |> List.map (fun r -> r.value)

let summary = function
  | [] -> "-"
  | vs ->
    let s = Stats.sorted vs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.quantile s 0.5) (Stats.quantile s 0.25)
      (Stats.quantile s 0.75)

(* Print one row per (workload, metric) and return the number of
   regressions. Per-layer metrics carry no bound and get no verdict. *)
let compare ~a ~b =
  let keys =
    List.fold_left
      (fun acc r ->
        let k = (r.workload, r.metric, r.unit_) in
        if List.mem k acc then acc else k :: acc)
      [] (a @ b)
    |> List.rev
  in
  Printf.printf "%-15s %-26s %-6s %-30s %-30s %8s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  List.fold_left
    (fun regressions (workload, metric, unit_) ->
      let va = values a ~workload ~metric and vb = values b ~workload ~metric in
      let change =
        match (va, vb) with
        | [], _ | _, [] -> "-"
        | _ ->
          let ma = Stats.median va and mb = Stats.median vb in
          if Float.equal ma 0.0 then "-"
          else Printf.sprintf "%+.1f%%" (100.0 *. (mb -. ma) /. Float.abs ma)
      in
      let v =
        match (Registry.find metric, va, vb) with
        | _, [], _ | _, _, [] -> None
        | Some m, _, _ when not m.Registry.layer ->
          Some (verdict ~better:m.Registry.better ~bound:m.Registry.bound va vb)
        | _ -> None
      in
      Printf.printf "%-15s %-26s %-6s %-30s %-30s %8s  %s\n" workload metric unit_
        (summary va) (summary vb) change
        (match v with Some v -> verdict_string v | None -> "-");
      if v = Some Regressed then regressions + 1 else regressions)
    0 keys
