(** Reaching definitions and def-use chains.

    A definition point is a CFG node paired with the variable it may
    define; [Entry] stands for the value a variable has on entry to
    the unit (formal parameters, COMMON storage, or simply Fortran's
    static allocation of locals).  Array definitions are weak: they
    generate but never kill.

    Def-use chains are the backbone of the editor's variable pane and
    of scalar dependence construction. *)

open Fortran_front

type def = { def_at : Cfg.node; def_var : string }

val def_compare : def -> def -> int

type t

val analyze : Defuse.ctx -> Cfg.t -> t

(** Definitions reaching the program point just before [node]. *)
val reaching_in : t -> Cfg.node -> def list

(** Definitions of [var] reaching the use at statement [sid]. *)
val defs_of_use : t -> Ast.stmt_id -> string -> def list

(** When exactly one non-entry definition reaches the use, return it. *)
val unique_def : t -> Ast.stmt_id -> string -> Ast.stmt_id option

(** All def-use chains: [(def, use_sid)] pairs where the use reads the
    def's variable. *)
val chains : t -> (def * Ast.stmt_id) list
