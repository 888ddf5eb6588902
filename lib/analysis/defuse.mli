(** Per-statement definition and use sets.

    Shared by reaching definitions, liveness, constant propagation and
    scalar-kill analysis.  Array assignments are "weak" definitions:
    they define the array name but never kill previous definitions.

    CALL statements are handled through an optional {!call_oracle}
    provided by interprocedural analysis (Mod/Ref); without one, a
    call conservatively may-defines and uses every actual-argument
    variable and every COMMON variable of the unit — exactly the
    assumption Ped falls back on when interprocedural analysis is
    unavailable.  External function calls appearing inside expressions
    are assumed side-effect free (Fortran 77 programs that Ped targets
    obey this; the interpreter enforces it). *)

open Fortran_front

(** Interprocedural summary of one CALL statement, in the caller's
    name space. *)
type call_effects = {
  ce_mods : string list;   (** variables the callee may modify *)
  ce_refs : string list;   (** variables the callee may read *)
  ce_kills : string list;  (** scalars the callee defines on every path
                               before any use (interprocedural Kill) *)
}

(** Given a CALL statement, returns its effects, or [None] for "no
    information" (be conservative). *)
type call_oracle = Ast.stmt -> call_effects option

type ctx

(** [make ?oracle table unit] prepares the context used by the
    per-statement queries. *)
val make : ?oracle:call_oracle -> Symbol.table -> Ast.program_unit -> ctx

val table : ctx -> Symbol.table

(** Names possibly defined by the statement itself (not by nested
    statements): assignment lhs, DO induction variable, CALL effects. *)
val may_defs : ctx -> Ast.stmt -> string list

(** Scalar names definitely (strongly) defined — kills previous defs:
    only [Assign (Var v, _)] and the DO induction variable qualify. *)
val must_defs : ctx -> Ast.stmt -> string list

(** Names possibly read by the statement itself: rhs variables,
    subscripts on the lhs, conditions, bounds, call uses. *)
val uses : ctx -> Ast.stmt -> string list

(** A statement's own [uses], [may_defs] and [must_defs], from one
    query: a CALL's effects are looked up once for all three. *)
type facts = { uses : string list; may_defs : string list; must_defs : string list }

val facts : ctx -> Ast.stmt -> facts

(** [array_writes ctx s] / [array_reads ctx s] — array references
    (name, subscript list) written/read by the statement itself.
    Used by dependence analysis to enumerate reference pairs. *)
val array_writes : ctx -> Ast.stmt -> (string * Ast.expr list) list

val array_reads : ctx -> Ast.stmt -> (string * Ast.expr list) list

(** Scalars written by the statement (excludes arrays). *)
val scalar_writes : ctx -> Ast.stmt -> string list

(** The (oracle-supplied or conservative) effects of a CALL statement;
    empty effects for any other statement. *)
val effects_of_call : ctx -> Ast.stmt -> call_effects
