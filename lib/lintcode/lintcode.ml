(* Codelint: a compiler-libs AST analyzer that enforces the repo's own
   coding invariants — the conventions PRs 2/3/5 introduced by hand and
   nothing checked mechanically since:

   - pool-capture  closures handed to [Util.Pool] must not mutate
                   captured refs / mutable fields / Hashtbls without a
                   Mutex or Atomic in the same scope (heuristic race
                   detector; per-index array-slot writes are the blessed
                   pattern and deliberately not flagged);
   - budget-poll   while-loops and large self-recursive functions in
                   solver modules must poll [Util.Budget] on some path;
   - no-failwith   library code raises through [Util.Invariant]
                   ([Invariant.fail] / [Invariant.invalid]), never bare
                   [failwith]/[invalid_arg]/[assert false];
   - det-order     [Hashtbl.fold]/[iter] results must pass through an
                   explicit sort before they can reach an output, and
                   solver code must not read ambient entropy
                   ([Random.self_init], wall-clock time);
   - float-eq      numeric code must use [Float.equal]/[Float.compare]
                   instead of polymorphic [=]/[compare] on floats.

   Everything is purely syntactic (Parsetree, no typing), so each rule
   is a heuristic: false positives are expected and waived explicitly
   with [@codelint.allow "rule-id" "justification"] so every waiver is
   visible in the diff. A waiver without a justification string is
   itself a finding. *)

open Parsetree

type severity = Error | Warning

type finding = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

let severity_label = function Error -> "error" | Warning -> "warning"

(* Stable rule ids, also the vocabulary accepted by [@codelint.allow]. *)
let rules : (string * string) list =
  [
    ( "pool-capture",
      "closure given to Util.Pool mutates captured mutable state without a \
       Mutex/Atomic in scope" );
    ( "budget-poll",
      "long-running loop in a solver module never polls Util.Budget" );
    ( "no-failwith",
      "library code raises failwith/invalid_arg/assert false instead of \
       Util.Invariant" );
    ( "det-order",
      "Hashtbl iteration order, Random.self_init or wall-clock time can \
       leak into outputs" );
    ("float-eq", "polymorphic =/compare applied to floats in numeric code");
    ( "waiver",
      "malformed [@codelint.allow] attribute (unknown rule or missing \
       justification)" );
    ("parse-error", "source file failed to parse");
  ]

let known_rule id = List.mem_assoc id rules

type config = {
  lib_prefixes : string list;  (* no-failwith scope *)
  solver_prefixes : string list;  (* budget-poll + wall-clock scope *)
  numeric_prefixes : string list;  (* float-eq scope *)
  recursion_threshold : int;
      (* budget-poll only fires on a self-recursive binding whose body
         has at least this many expression nodes: tiny structural
         helpers terminate by construction, the B&B / refinement /
         Δ-relaxation drivers do not. *)
}

let default_config =
  {
    lib_prefixes = [ "lib/" ];
    solver_prefixes = [ "lib/lp/"; "lib/floorplan/" ];
    numeric_prefixes = [ "lib/lp/"; "lib/linalg/" ];
    recursion_threshold = 100;
  }

(* ---------- path scoping ---------- *)

let normalize_path file =
  let file =
    if String.length file > 1 && String.sub file 0 2 = "./" then
      String.sub file 2 (String.length file - 2)
    else file
  in
  String.map (fun c -> if c = '\\' then '/' else c) file

let in_scope prefixes file =
  List.exists (fun p -> String.starts_with ~prefix:p file) prefixes

(* ---------- small parsetree helpers ---------- *)

let ident_parts (lid : Longident.t) =
  match lid with
  | Lident n -> ([], n)
  | Ldot (p, n) -> (
    (match Longident.flatten p with parts -> (parts, n) | exception _ -> ([], n)))
  | Lapply _ -> ([], "")

let last_module lid =
  match ident_parts lid with
  | [], _ -> None
  | parts, _ -> Some (List.nth parts (List.length parts - 1))

let ident_name lid = snd (ident_parts lid)

(* [qualified ~modules ~names lid]: the final component is one of
   [names] and the innermost module qualifier is one of [modules]
   (e.g. Hashtbl.fold, Stdlib.Hashtbl.fold, MyHashtbl via alias is
   missed — syntactic analysis). *)
let qualified ~modules ~names lid =
  List.mem (ident_name lid) names
  && match last_module lid with Some m -> List.mem m modules | None -> false

(* Bare or Stdlib-qualified: failwith, Stdlib.failwith, compare, ... *)
let stdlib_ident ~names lid =
  List.mem (ident_name lid) names
  && match last_module lid with None -> true | Some m -> m = "Stdlib"

let rec head_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some txt
  | Pexp_apply (f, _) -> head_ident f
  | _ -> None

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum
let loc_col (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

exception Found

(* True when some sub-expression of [e] (including [e]) satisfies [p]. *)
let expr_exists p e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if p e then raise Found;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  try
    it.expr it e;
    false
  with Found -> true

let expr_size e =
  let n = ref 0 in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          incr n;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !n

(* Every name bound by any pattern inside [e] (fun args, lets, match
   arms, for indices). Over-approximates lexical scope — good enough to
   separate closure-local state from captured state. *)
let bound_names_in e =
  let acc = Hashtbl.create 16 in
  let record (p : pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
      Hashtbl.replace acc txt ()
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          record p;
          Ast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_for (p, _, _, _, _) -> record p
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  acc

(* ---------- rule predicates ---------- *)

let is_budget_mention e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match last_module txt with
    | Some "Budget" -> true
    | _ ->
      let n = ident_name txt in
      n = "expired" || n = "checkpoint" || n = "poll"
      ||
      (let lower = String.lowercase_ascii n in
       let sub = "budget" in
       let ln = String.length lower and ls = String.length sub in
       let rec scan i =
         i + ls <= ln && (String.sub lower i ls = sub || scan (i + 1))
       in
       scan 0))
  | _ -> false

let mentions_budget e = expr_exists is_budget_mention e

(* Mutex/Atomic "in the same scope": any mention of the synchronization
   vocabulary inside the same closure suppresses pool-capture. *)
let is_sync_mention e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match last_module txt with
    | Some ("Mutex" | "Atomic" | "Semaphore" | "Condition") -> true
    | _ ->
      let n = String.lowercase_ascii (ident_name txt) in
      n = "locked" || n = "lock" || n = "protect" || n = "with_lock")
  | _ -> false

let mentions_sync e = expr_exists is_sync_mention e

let hashtbl_mutators =
  [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]

(* Captured-state mutations inside [e]: (name, loc, what) for
   [name := _], [name.field <- _] and [Hashtbl.replace name ...] where
   [name] is not bound anywhere inside [e] itself. Array/Bytes element
   writes are deliberately exempt: per-index disjoint slots are the
   pool's documented result-recording pattern. *)
let captured_mutations e =
  let bound = bound_names_in e in
  let muts = ref [] in
  let target_name t =
    match head_ident t with
    | Some (Longident.Lident n) when not (Hashtbl.mem bound n) -> Some n
    | _ -> None
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_setfield (t, _, _) -> (
            match target_name t with
            | Some n -> muts := (n, e.pexp_loc, "mutable field") :: !muts
            | None -> ())
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt = Lident ":="; _ }; _ },
               (_, lhs) :: _) -> (
            match target_name lhs with
            | Some n -> muts := (n, e.pexp_loc, "ref cell") :: !muts
            | None -> ())
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, tbl) :: _)
            when qualified ~modules:[ "Hashtbl" ] ~names:hashtbl_mutators txt
            -> (
            match target_name tbl with
            | Some n -> muts := (n, e.pexp_loc, "Hashtbl") :: !muts
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.rev !muts

let float_idents =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float" ]

let float_ops =
  [ "+."; "-."; "*."; "/."; "**"; "~-."; "abs_float"; "sqrt"; "float_of_int" ]

(* Syntactically-evident floatness; typing is unavailable, so only
   literals, the float constants, float arithmetic and Float.* results
   count. *)
let floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> stdlib_ident ~names:float_idents txt
  | Pexp_apply (f, _) -> (
    match head_ident f with
    | Some lid -> (
      stdlib_ident ~names:float_ops lid
      ||
      match last_module lid with
      | Some "Float" -> ident_name lid <> "to_int"
      | _ -> false)
    | None -> false)
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Lident "float"; _ }, []); _ }) ->
    true
  | _ -> false

let sort_names = [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]

let is_sort_head e =
  match head_ident e with
  | Some lid -> qualified ~modules:[ "List"; "Array" ] ~names:sort_names lid
  | None -> false

(* The fold result is considered order-safe when an enclosing
   application sorts it: [List.sort cmp (Hashtbl.fold ...)] or
   [Hashtbl.fold ... |> List.sort_uniq cmp |> ...]. *)
let sorted_by_ancestor ancestors =
  List.exists
    (fun a ->
      match a.pexp_desc with
      | Pexp_apply (f, args) ->
        is_sort_head f || List.exists (fun (_, arg) -> is_sort_head arg) args
      | _ -> false)
    ancestors

(* ---------- waivers ---------- *)

type waiver = { w_rule : string; w_from : int; w_to : int }

let string_const e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* Accepted payload shapes:
     [@codelint.allow "rule-id" "justification"]   (application)
     [@codelint.allow ("rule-id", "justification")] (tuple)
     [@codelint.allow "rule-id"]                    (missing justification
                                                     -> waiver finding) *)
let parse_allow_payload = function
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> `No_justification s
    | Pexp_tuple [ a; b ] -> (
      match (string_const a, string_const b) with
      | Some r, Some j -> `Ok (r, j)
      | _ -> `Malformed)
    | Pexp_apply (f, [ (_, arg) ]) -> (
      match (string_const f, string_const arg) with
      | Some r, Some j -> `Ok (r, j)
      | _ -> `Malformed)
    | _ -> `Malformed)
  | _ -> `Malformed

let is_allow_attr (a : attribute) = a.attr_name.txt = "codelint.allow"

(* ---------- the analysis ---------- *)

let lint_structure ?(config = default_config) ~file str =
  let file = normalize_path file in
  let findings = ref [] in
  let waivers = ref [] in
  let emit ?(severity = Error) rule loc fmt =
    Printf.ksprintf
      (fun message ->
        findings :=
          {
            rule;
            severity;
            file;
            line = loc_line loc;
            col = loc_col loc;
            message;
          }
          :: !findings)
      fmt
  in
  let lib_scope = in_scope config.lib_prefixes file in
  let solver_scope = in_scope config.solver_prefixes file in
  let numeric_scope = in_scope config.numeric_prefixes file in

  (* -- pass 1: waiver spans (and waiver hygiene findings) ------------ *)
  let add_waiver ~from_line ~to_line (a : attribute) =
    match parse_allow_payload a.attr_payload with
    | `Ok (rule, j) ->
      if not (known_rule rule) then
        emit "waiver" a.attr_loc "[@codelint.allow] names unknown rule `%s`"
          rule
      else if String.trim j = "" then
        emit "waiver" a.attr_loc
          "[@codelint.allow \"%s\"] has an empty justification" rule
      else waivers := { w_rule = rule; w_from = from_line; w_to = to_line } :: !waivers
    | `No_justification rule ->
      emit "waiver" a.attr_loc
        "[@codelint.allow \"%s\"] lacks a justification string (use \
         [@codelint.allow \"%s\" \"why this is safe\"])"
        rule rule
    | `Malformed ->
      emit "waiver" a.attr_loc
        "malformed [@codelint.allow] payload: expected a rule id and a \
         justification string"
  in
  let collect_attrs ~loc attrs =
    List.iter
      (fun a ->
        if is_allow_attr a then
          add_waiver ~from_line:(loc_line loc)
            ~to_line:loc.Location.loc_end.pos_lnum a)
      attrs
  in
  let waiver_it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          collect_attrs ~loc:e.pexp_loc e.pexp_attributes;
          Ast_iterator.default_iterator.expr it e);
      value_binding =
        (fun it vb ->
          collect_attrs ~loc:vb.pvb_loc vb.pvb_attributes;
          Ast_iterator.default_iterator.value_binding it vb);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_attribute a when is_allow_attr a ->
            (* Floating [@@@codelint.allow ...]: rest of the file. *)
            (match parse_allow_payload a.attr_payload with
            | `Ok (rule, j) ->
              if not (known_rule rule) then
                emit "waiver" a.attr_loc
                  "[@codelint.allow] names unknown rule `%s`" rule
              else if String.trim j = "" then
                emit "waiver" a.attr_loc
                  "[@codelint.allow \"%s\"] has an empty justification" rule
              else
                waivers :=
                  { w_rule = rule; w_from = loc_line a.attr_loc; w_to = max_int }
                  :: !waivers
            | `No_justification rule ->
              emit "waiver" a.attr_loc
                "[@codelint.allow \"%s\"] lacks a justification string" rule
            | `Malformed ->
              emit "waiver" a.attr_loc
                "malformed [@codelint.allow] payload: expected a rule id and \
                 a justification string")
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
    }
  in
  waiver_it.structure waiver_it str;

  (* -- pass 2: rules ------------------------------------------------- *)
  let check_rec_bindings vbs =
    let names =
      List.filter_map
        (fun vb ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> Some txt
          | _ -> None)
        vbs
    in
    List.iter
      (fun vb ->
        let body = vb.pvb_expr in
        let self_call =
          expr_exists
            (fun e ->
              match e.pexp_desc with
              | Pexp_ident { txt = Lident n; _ } -> List.mem n names
              | _ -> false)
            body
        in
        if
          self_call
          && expr_size body >= config.recursion_threshold
          && not (mentions_budget body)
        then
          emit "budget-poll" vb.pvb_loc
            "self-recursive solver loop `%s` (%d nodes) has no \
             Util.Budget checkpoint on any path"
            (match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> txt
            | _ -> "_")
            (expr_size body))
      vbs
  in
  let ancestors = ref [] in
  let check_expr e =
    (match e.pexp_desc with
    (* ---- no-failwith ---- *)
    | Pexp_ident { txt; loc }
      when lib_scope && stdlib_ident ~names:[ "failwith"; "invalid_arg" ] txt ->
      emit "no-failwith" loc
        "`%s` in library code: raise through Util.Invariant (%s) so failures \
         carry a structured `where`"
        (ident_name txt)
        (if ident_name txt = "failwith" then "Invariant.fail"
         else "Invariant.invalid")
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      when lib_scope ->
      emit "no-failwith" e.pexp_loc
        "`assert false` in library code: use Invariant.fail with a message \
         naming the impossible state"
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = raise_id; _ }; _ },
         [ (_, { pexp_desc = Pexp_construct ({ txt = exn_id; _ }, _); _ }) ])
      when lib_scope
           && stdlib_ident ~names:[ "raise"; "raise_notrace" ] raise_id
           && stdlib_ident ~names:[ "Failure"; "Invalid_argument" ] exn_id ->
      emit "no-failwith" e.pexp_loc
        "`raise (%s _)` in library code: raise through Util.Invariant instead"
        (ident_name exn_id)
    (* ---- budget-poll: while loops ---- *)
    | Pexp_while (cond, body) when solver_scope ->
      if not (mentions_budget cond || mentions_budget body) then
        emit "budget-poll" e.pexp_loc
          "while-loop in a solver module has no Util.Budget checkpoint in \
           its condition or body"
    (* ---- budget-poll: recursive lets inside expressions ---- *)
    | Pexp_let (Recursive, vbs, _) when solver_scope -> check_rec_bindings vbs
    (* ---- det-order / float-eq / pool-capture via applications ---- *)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      (* Hashtbl.fold / Hashtbl.iter without a sorting ancestor. *)
      if qualified ~modules:[ "Hashtbl" ] ~names:[ "fold"; "iter" ] txt then begin
        if not (sorted_by_ancestor !ancestors) then
          emit "det-order" e.pexp_loc
            "`Hashtbl.%s` result is not passed through an explicit sort: \
             bucket order depends on the hash seed and can leak into outputs"
            (ident_name txt)
      end;
      (* Polymorphic comparison on floats. *)
      (if
         numeric_scope
         && stdlib_ident ~names:[ "="; "<>"; "=="; "!="; "compare" ] txt
       then
         match args with
         | [ (_, a); (_, b) ] when floatish a || floatish b ->
           emit "float-eq" e.pexp_loc
             "polymorphic `%s` on a float operand: use Float.equal / \
              Float.compare (NaN-explicit, monomorphic)"
             (ident_name txt)
         | _ -> ());
      (* Pool closures mutating captured state. *)
      if
        qualified ~modules:[ "Pool" ]
          ~names:[ "map"; "run"; "submit" ]
          txt
      then
        List.iter
          (fun (_, arg) ->
            if not (mentions_sync arg) then
              List.iter
                (fun (name, loc, what) ->
                  emit "pool-capture" loc
                    "closure given to Pool.%s mutates captured %s `%s` with \
                     no Mutex/Atomic in scope: parallel tasks race on it"
                    (ident_name txt) what name)
                (captured_mutations arg))
          args)
    (* ---- det-order: ambient entropy ---- *)
    | Pexp_ident { txt; loc }
      when qualified ~modules:[ "Random" ] ~names:[ "self_init" ] txt ->
      emit "det-order" loc
        "`Random.self_init` makes runs irreproducible: thread Util.Rng seeds \
         instead"
    | Pexp_ident { txt; loc }
      when solver_scope
           && (qualified ~modules:[ "Unix" ] ~names:[ "gettimeofday"; "time" ]
                 txt
              || qualified ~modules:[ "Sys" ] ~names:[ "time" ] txt) ->
      emit "det-order" loc
        "wall-clock time in a solver module: use Util.Budget's monotonic \
         clock so deadlines and outputs stay reproducible"
    | _ -> ())
  in
  let rule_it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          check_expr e;
          ancestors := e :: !ancestors;
          Ast_iterator.default_iterator.expr it e;
          ancestors := List.tl !ancestors);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_value (Recursive, vbs) when solver_scope ->
            check_rec_bindings vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
    }
  in
  rule_it.structure rule_it str;

  (* -- apply waivers ------------------------------------------------- *)
  let waived f =
    f.rule <> "waiver"
    && List.exists
         (fun w -> w.w_rule = f.rule && w.w_from <= f.line && f.line <= w.w_to)
         !waivers
  in
  List.filter (fun f -> not (waived f)) (List.rev !findings)
  |> List.sort (fun a b ->
         match compare a.line b.line with 0 -> compare a.col b.col | c -> c)

let lint_string ?config ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  match Parse.implementation lexbuf with
  | str -> lint_structure ?config ~file str
  | exception exn ->
    [
      {
        rule = "parse-error";
        severity = Error;
        file = normalize_path file;
        line = 1;
        col = 0;
        message = Printexc.to_string exn;
      };
    ]

let lint_file ?config path =
  match Pparse.parse_implementation ~tool_name:"codelint" path with
  | str -> lint_structure ?config ~file:path str
  | exception exn ->
    [
      {
        rule = "parse-error";
        severity = Error;
        file = normalize_path path;
        line = 1;
        col = 0;
        message = Printexc.to_string exn;
      };
    ]

(* ---------- rendering ---------- *)

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s: %s" f.file f.line f.col
    (severity_label f.severity) f.rule f.message

let finding_json f =
  Json.Obj
    [
      ("rule", Json.Str f.rule);
      ("severity", Json.Str (severity_label f.severity));
      ("file", Json.Str f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("message", Json.Str f.message);
    ]

let findings_json fs =
  Json.Obj
    [
      ("tool", Json.Str "codelint");
      ("findings", Json.List (List.map finding_json fs));
      ("errors",
       Json.Int (List.length (List.filter (fun f -> f.severity = Error) fs)));
    ]
