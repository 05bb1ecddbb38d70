(** Cutting planes for the MILP core: Gomory mixed-integer cuts from
    the warm simplex tableau, lifted knapsack cover cuts from the
    Eq. (3) capacity structure, and the pool that manages their life
    cycle across the branch & bound tree.

    Every cut produced here is valid for the integer hull of the
    {e root} (presolved) model — Gomory shifts use the global variable
    bounds supplied by the caller rather than node-tightened branching
    bounds, and slack substitution goes through the defining row
    equations — so the pool can share cuts between tree nodes.
    Validity is enforced twice: numerically at separation time
    (worst-case right-hand-side relaxation for dropped coefficients, a
    small safety margin on every cut) and exactly at the incumbent via
    {!check_all} in rational arithmetic. *)

type provenance =
  | Gomory of { basic_var : int }
      (** Derived from the tableau row where structural [basic_var]
          sat basic at a fractional value. *)
  | Cover of { row : int }
      (** Lifted minimal cover of (a knapsack relaxation of) model row
          [row]. *)

val pp_provenance : Format.formatter -> provenance -> unit

type cut = {
  id : int;           (** pool index; LP row = base rows + id *)
  provenance : provenance;
  terms : (int * float) list;
      (** structural-variable space, sorted by variable *)
  rhs : float;        (** sense is always [terms <= rhs] *)
}

val pp_cut : Format.formatter -> cut -> unit

(** {1 Tuning constants} *)

val max_cuts : int
(** The cut pool's capacity — also the row slots the search's LP
    state reserves. *)

val max_per_round : int
(** Cuts admitted per separation round. *)

val age_limit : int
(** Consecutive slack observations before a cut is deactivated. *)

(** {1 Cut pool}

    The pool owns every cut ever admitted. Cuts are append-only — a
    cut's [id] doubles as its row offset in the search's LP state, so
    slots are never reclaimed; deactivation relaxes the row instead
    ({!Simplex.set_row_enforced}). *)

type pool

val create_pool : unit -> pool

val size : pool -> int
(** Cuts ever admitted (active + aged out). *)

val get : pool -> int -> cut
val is_active : pool -> int -> bool

val admit :
  pool -> provenance:provenance -> terms:(int * float) list -> rhs:float -> int option
(** Admit a separated cut. [None] when the pool is at capacity or the
    cut duplicates one already seen (exact term/rhs match). *)

val observe : pool -> (int -> float) -> unit
(** Feed one LP optimum to the aging machinery: active cuts with slack
    age (and deactivate past {!age_limit}); inactive cuts violated by
    the point reactivate. *)

type pool_stats = {
  separated : int;   (** cuts ever admitted *)
  active : int;      (** currently active *)
  aged_out : int;    (** deactivations (lifetime count) *)
  reactivated : int; (** reactivations of aged-out cuts *)
}

val pool_stats : pool -> pool_stats

(** {1 Separation} *)

val separate_gomory :
  st:Simplex.state ->
  is_int:(int -> bool) ->
  global_lb:float array ->
  global_ub:float array ->
  row_terms:(int -> (int * float) list) ->
  row_rhs:(int -> float) ->
  row_rel:(int -> Model.relation) ->
  (provenance * (int * float) list * float * float) list
(** Gomory mixed-integer cuts from the current optimal basis of [st]:
    one candidate per integer structural variable basic at a
    fractional value, most fractional first. [global_lb]/[global_ub]
    are the root bounds the shifts use; [row_terms]/[row_rhs]/[row_rel]
    describe every live row (model rows and appended cut rows) for
    slack substitution. Returns [(provenance, terms, rhs, violation)]
    in decreasing violation order, at most {!max_per_round}, each
    violated by more than [1e-6] at the current point. *)

val separate_cover :
  model_rows:(int * (int * float) list * Model.relation * float) list ->
  is_binary:(int -> bool) ->
  global_lb:float array ->
  global_ub:float array ->
  values:float array ->
  (provenance * (int * float) list * float * float) list
(** Lifted minimal-cover cuts from knapsack relaxations of the given
    model rows ([Le] directly, [Ge] negated; non-binary terms pushed
    to the right-hand side at their worst case over the global box).
    Same result convention as {!separate_gomory}. *)

(** {1 Exact audit} *)

val check : ?tol:float -> cut -> (int -> float) -> (unit, string) result
(** Exact rational check that the assignment satisfies the cut within
    [tol] (default [1e-6]): Σ c_v·x_v ≤ rhs + tol evaluated in
    {!Agingfp_util.Rat}. The [Error] names the cut and its
    provenance. *)

val check_all : ?tol:float -> pool -> (int -> float) -> (unit, string) result
(** {!check} over every cut ever admitted (active or aged out) —
    validity does not expire with activity. First violation wins. *)
