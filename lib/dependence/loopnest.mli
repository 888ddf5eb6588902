(** Loop-nest structure of a program unit.

    Assigns every DO loop its nesting depth and parents and answers
    the containment queries dependence analysis and transformations
    ask constantly ("the loops enclosing both endpoints, outermost
    first"). *)

open Fortran_front

type loop = {
  lstmt : Ast.stmt;            (** the DO statement *)
  header : Ast.do_header;
  depth : int;                 (** 1 = outermost *)
  parents : Ast.stmt_id list;  (** enclosing loop ids, outermost first *)
}

type t

val build : Ast.program_unit -> t

(** All loops in preorder (outer before inner, source order). *)
val loops : t -> loop list

val find : t -> Ast.stmt_id -> loop option

(** Loops strictly enclosing a statement, outermost first — includes
    the loop itself when [sid] is a DO statement only if it encloses
    itself = no. *)
val enclosing : t -> Ast.stmt_id -> loop list

(** Loops enclosing both statements, outermost first. *)
val common : t -> Ast.stmt_id -> Ast.stmt_id -> loop list

(** Statements (transitively) inside a loop, in source order,
    excluding the DO itself. *)
val body_stmts : t -> Ast.stmt_id -> Ast.stmt list

(** Is [inner] nested (transitively) inside [outer]? *)
val nested_in : t -> inner:Ast.stmt_id -> outer:Ast.stmt_id -> bool

(** Maximum nesting depth in the unit (0 when loop-free). *)
val max_depth : t -> int

(** Does [sid] (any statement) lie inside the loop [loop_sid]? *)
val stmt_in_loop : t -> Ast.stmt_id -> loop_sid:Ast.stmt_id -> bool
