(** Compressed sparse vectors and a stamped elimination workspace.

    Storage form for LU factor columns and simplex eta spikes, plus
    the dense-with-occupancy working form of one column during
    elimination. The workspace clears in O(touched) via generation
    stamps, not O(n).

    There are no per-entry iterators: consumers loop over the exposed
    arrays, so no solve pays a closure or a boxed float per entry. *)

type vec = {
  mutable nnz : int;
  mutable idx : int array;   (** indices of the first [nnz] entries *)
  mutable vals : float array; (** values matching [idx] *)
}
(** Growable compressed vector. Entries [0 .. nnz-1] are live; index
    order is insertion order (not necessarily sorted). *)

val create : ?cap:int -> unit -> vec
val clear : vec -> unit

val length : vec -> int
(** Number of stored entries. *)

val ensure : vec -> int -> unit
(** [ensure v extra] grows the backing arrays so that [extra] more
    entries fit without reallocation. *)

(** {1 Elimination workspace} *)

type workspace = {
  x : float array;       (** dense values; only valid where stamped *)
  stamp : int array;     (** [stamp.(i) = gen] iff slot [i] is live *)
  touched : int array;   (** live indices [0 .. ntouched-1], in touch order *)
  mutable ntouched : int;
  mutable gen : int;
}

val workspace : int -> workspace
(** Workspace over index domain [0 .. n-1]. *)

val reset : workspace -> unit
(** Invalidate all live slots (O(1): bumps the generation stamp). *)

val touch : workspace -> int -> unit
(** Make slot [i] live with value [0.0] if it is not live already. *)
