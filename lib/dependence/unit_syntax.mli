(** The syntax of one unit version, taken apart once.

    A record holds a program unit with its symbol table and its CFG,
    built together, and its loop nest and control dependences, each
    built on first use.  The call graph keeps one per unit and every
    analysis of that unit reads it: the interprocedural passes, and
    each {!Depenv} built for the unit, whatever its assertions or
    interprocedural view.  The records are immutable once their lazy
    parts are built, so domains may share them. *)

open Fortran_front
open Scalar_analysis

type t

val build : Ast.program_unit -> t
val unit_ : t -> Ast.program_unit
val symbols : t -> Symbol.table
val cfg : t -> Cfg.t
val nest : t -> Loopnest.t
val control : t -> Control_dep.edge list
