(* Compressed sparse vectors and a stamped elimination workspace.

   Compressed vectors (index/value pairs) are the storage form of LU
   factor columns and eta spikes. The workspace is the dense working
   form of one column during elimination: a float array plus a list of
   the slots touched, made live by generation stamps instead of a
   cleared boolean mask so that clearing costs O(nnz touched), not
   O(n).

   Consumers loop over [idx]/[vals] and the workspace arrays directly:
   a per-entry closure or a float passed across the module boundary
   boxes one float per entry in a build without cross-module inlining,
   which is the whole cost of a triangular solve. *)

type vec = {
  mutable nnz : int;
  mutable idx : int array;
  mutable vals : float array;
}

let create ?(cap = 8) () =
  let cap = max cap 1 in
  { nnz = 0; idx = Array.make cap 0; vals = Array.make cap 0.0 }

let clear v = v.nnz <- 0
let length v = v.nnz

let ensure v extra =
  let need = v.nnz + extra in
  if need > Array.length v.idx then begin
    let cap = max need (2 * Array.length v.idx) in
    let idx = Array.make cap 0 and vals = Array.make cap 0.0 in
    Array.blit v.idx 0 idx 0 v.nnz;
    Array.blit v.vals 0 vals 0 v.nnz;
    v.idx <- idx;
    v.vals <- vals
  end

(* ---------- elimination workspace ---------- *)

type workspace = {
  x : float array;
  stamp : int array;
  touched : int array;
  mutable ntouched : int;
  mutable gen : int;
}

let workspace n =
  {
    x = Array.make (max n 1) 0.0;
    stamp = Array.make (max n 1) (-1);
    touched = Array.make (max n 1) 0;
    ntouched = 0;
    gen = 0;
  }

let reset ws =
  ws.gen <- ws.gen + 1;
  ws.ntouched <- 0

let touch ws i =
  if ws.stamp.(i) <> ws.gen then begin
    ws.stamp.(i) <- ws.gen;
    ws.x.(i) <- 0.0;
    ws.touched.(ws.ntouched) <- i;
    ws.ntouched <- ws.ntouched + 1
  end
