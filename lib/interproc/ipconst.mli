(** Interprocedural constant propagation.

    A formal parameter is an interprocedural constant when every call
    site passes it the same compile-time constant value (evaluated
    with the caller's PARAMETER constants and the caller's own
    interprocedural constants — computed to a fixed point).  The
    constants feed the callee's dependence analysis as asserted
    values, inheriting "from a procedure's callers" exactly as Ped's
    framework does. *)

type t

(** [compute ?base cg] — top-down over {!Propagate.run}: a unit is
    re-solved when it or a caller changed since [base]. *)
val compute : ?base:t -> Callgraph.t -> t

(** Units this build solved, sorted. *)
val solved : t -> string list

(** Formal-parameter constants of a unit: [(formal, value)]. *)
val constants_of : t -> string -> (string * int) list
