(* Order statistics for benchmark samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Quantile [q] of a sorted sample by linear interpolation at rank
   q (n + 1) — the "exclusive" method of Python's statistics.quantiles
   (which extrapolates from the two end samples when that rank falls
   outside the sample), so quartiles agree with ones computed in
   Python from the printed results. *)
let quantile a q =
  match Array.length a with
  | 0 -> nan
  | 1 -> a.(0)
  | n ->
    let pos = q *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float (Float.floor pos))) in
    a.(j - 1) +. ((pos -. float_of_int j) *. (a.(j) -. a.(j - 1)))

let median xs = quantile (sorted xs) 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
