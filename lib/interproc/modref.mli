(** Flow-insensitive interprocedural side-effect analysis (Mod/Ref).

    For every program unit: which of its formal parameters and COMMON
    variables may be modified, and which may be referenced, on some
    path through the unit — including effects of the calls it makes
    (computed to a fixed point over the call graph).

    The Ped evaluation found this analysis indispensable: without it,
    a loop containing a CALL conservatively modifies every actual and
    every COMMON variable, and almost never parallelizes. *)

open Fortran_front

module SSet : Set.S with type elt = string

type summary = { mods : SSet.t; refs : SSet.t }
(** Names are in the unit's own name space (formal names and COMMON
    variable names). *)

type t

(** [compute ?base cg] — bottom-up over {!Propagate.run}: a unit is
    re-solved when it or a callee changed since [base]. *)
val compute : ?base:t -> Callgraph.t -> t

(** Summary of a unit; [None] for external routines (assume worst). *)
val summary_of : t -> string -> summary option

(** Units this build solved, sorted. *)
val solved : t -> string list

(** [translate t ~site ~tbl] — the effect of one call site in the
    caller's name space: [(mods, refs)].  [tbl] is the caller's symbol
    table (to decide which actuals are modifiable).  Unknown callees
    translate to "modifies and reads every modifiable actual and every
    COMMON variable of the caller". *)
val translate :
  t -> site:Callgraph.site -> tbl:Symbol.table -> string list * string list
