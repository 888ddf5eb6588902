(** Bounded regular section analysis of array side effects.

    For every unit and every externally visible array (formal or
    COMMON), summarize which part of the array the unit may write and
    read.  Each dimension is a point (an expression over formals,
    COMMON variables and constants), a bounded range, or unknown.

    At a call site the summary translates into caller-space
    {e pseudo-references} that participate in ordinary dependence
    testing — so [DO I ... CALL ROW(A, I)] where ROW writes only row
    [I] parallelizes, the six-program "sections" win from the Ped
    evaluation. *)

open Fortran_front

type sec1 =
  | Point of Ast.expr          (** exactly this subscript *)
  | Range of Ast.expr * Ast.expr  (** between these, inclusive *)
  | Star                       (** anything *)

type section = sec1 list       (** one entry per dimension *)

type access = { sec_w : section option; sec_r : section option }
(** [None] — the unit does not touch the array in that mode. *)

type t

(** [compute ?base cg] — bottom-up over {!Propagate.run}: a unit is
    re-solved when it or a callee changed since [base]. *)
val compute : ?base:t -> Callgraph.t -> t

(** Units this build solved, sorted. *)
val solved : t -> string list

(** Per-array accesses of a unit (callee name space). *)
val summary_of : t -> string -> (string * access) list

(** [call_refs t ~site ~tbl] — the callee's array effects translated
    to caller space as pseudo-references: [(array, subscripts option,
    is_write)]; [None] subscripts mean the whole array.  Complete: an
    array the callee may touch always appears, degraded to whole-array
    when sections cannot describe it. *)
val call_refs :
  t ->
  site:Callgraph.site ->
  tbl:Symbol.table ->
  (string * Ast.expr list option * bool) list
