(* Explicit branch & bound tree: every open node carries its parent
   link, depth and the dual bound inherited from its parent's LP
   relaxation, so the store can answer the two questions the old
   LIFO-of-fix-lists could not:

   - "which node next?" under a plunge-then-jump rule (dive depth
     first while the dive lives, jump to the best bound when it dies),
     and
   - "what is the global dual bound?" — the minimum (in minimize-sign
     space) over every open and in-flight node, which is what turns an
     incumbent into a certified bounded-suboptimality result.

   The store is a plain data structure with at most one node in
   flight: the one the search is expanding. Two lazy-deletion heaps
   index the same open set — one in LIFO order for diving, one in
   (bound, id) order for best-first — and every heap key ends with the
   node id, so traversal order is a pure function of the insertion
   sequence: no hashtable iteration order, no physical addresses, no
   ambient entropy. *)

module Heap = Agingfp_util.Heap

type dir = Down | Up

type branch = { var : int; dir : dir; frac : float }

type node = {
  id : int;
  parent : int;  (* -1 for the root *)
  depth : int;
  bound : float;
      (* dual bound in minimize-sign space: the parent's LP relaxation
         objective ([neg_infinity] at the root, where nothing is
         proven yet). *)
  fixes : (int * float * float) list;  (* path bound changes, deepest first *)
  branch : branch option;  (* how this node was split off its parent *)
}

(* LIFO for diving: the newest node (largest id) first. *)
let cmp_dfs (a : int) (b : int) = Int.compare b a

(* Best bound first; node id breaks ties deterministically. *)
let cmp_best (ba, ia) (bb, ib) =
  match Float.compare ba bb with 0 -> Int.compare ia ib | c -> c

type t = {
  mutable next_id : int;
  open_tbl : (int, node) Hashtbl.t;  (* queued, not yet taken *)
  dfs : int Heap.t;
  best : (float * int) Heap.t;
  mutable active_bound : float;  (* in-flight node's bound; [infinity] when none *)
  mutable last_expanded : int;  (* parent id of the most recent children *)
}

let create () =
  {
    next_id = 0;
    open_tbl = Hashtbl.create 64;
    dfs = Heap.create cmp_dfs;
    best = Heap.create cmp_best;
    active_bound = infinity;
    last_expanded = -1;
  }

let add t ~parent ~depth ~bound ~fixes ~branch =
  let id = t.next_id in
  t.next_id <- id + 1;
  let n = { id; parent; depth; bound; fixes; branch } in
  Hashtbl.replace t.open_tbl id n;
  Heap.push t.dfs id;
  Heap.push t.best (bound, id);
  t.last_expanded <- parent;
  id

(* Skip heap entries whose node has already been taken through the
   other heap; stale tops are discarded permanently (a node never
   re-enters the open set under the same id). *)
let rec dfs_top t =
  match Heap.peek t.dfs with
  | None -> None
  | Some id -> (
    match Hashtbl.find_opt t.open_tbl id with
    | Some n -> Some n
    | None ->
      ignore (Heap.pop t.dfs);
      dfs_top t)

let rec best_top t =
  match Heap.peek t.best with
  | None -> None
  | Some (_, id) -> (
    match Hashtbl.find_opt t.open_tbl id with
    | Some n -> Some n
    | None ->
      ignore (Heap.pop t.best);
      best_top t)

let claim t (n : node) =
  Hashtbl.remove t.open_tbl n.id;
  t.active_bound <- n.bound;
  Some n

(* Plunge while the dive is alive: prefer a child of the node whose
   children were pushed last (that is exactly the LIFO top when the
   dive continues). When the dive dies — the last expansion produced
   no surviving children — jump to the best dual bound. *)
let take t =
  match dfs_top t with
  | Some n when n.parent = t.last_expanded -> claim t n
  | _ -> ( match best_top t with None -> None | Some n -> claim t n)

let finish t = t.active_bound <- infinity

(* Global dual bound in minimize-sign space: the minimum over open and
   the in-flight node. [infinity] once the tree is drained — every leaf
   was closed, so the incumbent (if any) is proven optimal. *)
let dual_bound t =
  let opened = match best_top t with None -> infinity | Some n -> n.bound in
  Float.min opened t.active_bound
