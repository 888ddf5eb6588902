(** Flow-sensitive scalar constant propagation.

    The classic optimistic lattice: unknown (top) / a single constant /
    varying (bottom), pointwise over scalar variables.  PARAMETER
    constants seed the environment; formals and COMMON variables start
    varying.  DO induction variables are varying inside their loop.

    Dependence analysis queries {!const_at} to evaluate loop bounds,
    steps and symbolic subscript terms at a particular statement —
    the "analysis of interprocedural and intraprocedural constants"
    that Ped's dependence tests rely on. *)

open Fortran_front

type value = Cint of int | Creal of float | Clog of bool

type t

val analyze : Defuse.ctx -> Cfg.t -> t

(** Constant value of [var] on entry to statement [sid], if the
    analysis proved one. *)
val const_of_var : t -> Ast.stmt_id -> string -> value option

(** Evaluate [e] at the program point before [sid] using proven
    constants and PARAMETER values. *)
val const_at : t -> Ast.stmt_id -> Ast.expr -> value option

(** Same, but demanding an integer. *)
val int_at : t -> Ast.stmt_id -> Ast.expr -> int option

(** Pure evaluator used by other analyses: evaluate [e] given an
    oracle for variable values. *)
val eval_with : (string -> value option) -> Ast.expr -> value option
