(** Interprocedural flow-sensitive scalar Kill analysis.

    A formal parameter or COMMON scalar is {e killed} by a unit when
    it is assigned on every control-flow path through the unit before
    any use.  A caller may then treat the variable as strongly defined
    by the CALL — which lets scalar privatization see through calls,
    the [nxsns]-style case the Ped evaluation highlights. *)

type t

(** [compute ?base cg modref] — bottom-up over {!Propagate.run}, so
    kills propagate through wrapper routines; a unit is re-solved
    when it or a callee changed since [base]. *)
val compute : ?base:t -> Callgraph.t -> Modref.t -> t

(** Units this build solved, sorted. *)
val solved : t -> string list

(** Scalars (formals and COMMON variables, callee name space) killed
    by the unit. *)
val kills_of : t -> string -> string list

(** Kills of one call site translated to the caller's name space: only
    whole-scalar actuals ([Var v]) can be killed. *)
val translate : t -> site:Callgraph.site -> string list
