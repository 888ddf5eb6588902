(** Call graph of a whole program.

    Nodes are program units; edges are CALL sites with their actual
    arguments.  Fortran 77 forbids recursion, so the graph is expected
    to be acyclic; {!components} groups any cycle into one strongly
    connected component, which the analyses iterate to a fixed
    point. *)

open Fortran_front

type site = {
  caller : string;
  callee : string;
  call_sid : Ast.stmt_id;
  actuals : Ast.expr list;
}

type t

(** [build ?base prog] — a unit physically equal ([==]) to the
    same-named unit of [base] keeps [base]'s syntax record
    ({!Dependence.Unit_syntax}) and call sites; every other unit is
    taken apart afresh. *)
val build : ?base:t -> Ast.program -> t
val unit_named : t -> string -> Ast.program_unit option
val unit_names : t -> string list
val sites : t -> site list

(** The syntax record of [u]: the graph's shared one when [u] is the
    unit the graph holds under that name, a fresh one otherwise (a
    candidate rewrite, say). *)
val syntax : t -> Ast.program_unit -> Dependence.Unit_syntax.t

(** The symbol table of {!syntax}. *)
val symbols : t -> Ast.program_unit -> Symbol.table

(** The shared symbol table of the named unit ([None] if unknown). *)
val symbols_named : t -> string -> Symbol.table option

(** Call sites appearing in the given unit. *)
val sites_in : t -> string -> site list

(** Call sites targeting the given unit. *)
val sites_to : t -> string -> site list

val callees_of : t -> string -> string list
val callers_of : t -> string -> string list

(** Strongly connected components of the units, callees first: a
    component's callees outside it all come in earlier components.
    An acyclic graph has one unit per component. *)
val components : t -> string list list

(** Unit names ordered callees-first: {!components}, flattened. *)
val bottom_up : t -> string list

(** The names [build ~base] did not take from [base]: each unit added
    or rewritten since [base], and each unit of [base] that is gone.
    Built without [base], every unit. *)
val rebuilt : t -> string list

(** Formal parameter names of a unit ([None] if unknown/external). *)
val formals_of : t -> string -> string list option

(** Graphviz rendering (the editor's call-graph display). *)
val dot : t -> string
