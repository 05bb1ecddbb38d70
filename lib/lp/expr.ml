module Imap = Map.Make (Int)

type t = { coefs : float Imap.t; constant : float }

let zero = { coefs = Imap.empty; constant = 0.0 }

let const c = { coefs = Imap.empty; constant = c }

let var ?(coef = 1.0) v =
  if Float.equal coef 0.0 then zero
  else { coefs = Imap.singleton v coef; constant = 0.0 }

let merge_coef a b =
  let s = a +. b in
  if Float.equal s 0.0 then None else Some s

let add e1 e2 =
  {
    coefs =
      Imap.union (fun _ a b -> merge_coef a b) e1.coefs e2.coefs;
    constant = e1.constant +. e2.constant;
  }

let scale a e =
  if Float.equal a 0.0 then zero
  else { coefs = Imap.map (fun c -> a *. c) e.coefs; constant = a *. e.constant }

let sub e1 e2 = add e1 (scale (-1.0) e2)

let add_term e c v = add e (var ~coef:c v)

let sum es = List.fold_left add zero es

(* [List.fold_left (fun e (v, c) -> add_term e c v) zero terms], built
   with one map update per term instead of a map union. *)
let of_terms terms =
  let coefs =
    List.fold_left
      (fun m (v, c) ->
        if Float.equal c 0.0 then m
        else Imap.update v (function None -> Some c | Some c0 -> merge_coef c0 c) m)
      Imap.empty terms
  in
  { coefs; constant = 0.0 }

let constant e = e.constant

let coef e v = match Imap.find_opt v e.coefs with Some c -> c | None -> 0.0

let terms e = Imap.bindings e.coefs

let eval assignment e =
  Imap.fold (fun v c acc -> acc +. (c *. assignment v)) e.coefs e.constant

let pp ppf e =
  let first = ref true in
  Imap.iter
    (fun v c ->
      if !first then first := false else Format.pp_print_string ppf " + ";
      Format.fprintf ppf "%g*x%d" c v)
    e.coefs;
  if (not (Float.equal e.constant 0.0)) || !first then begin
    if not !first then Format.pp_print_string ppf " + ";
    Format.fprintf ppf "%g" e.constant
  end
