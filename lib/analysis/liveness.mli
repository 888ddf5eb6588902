(** Live-variable analysis (backward).

    A variable is live at a point if some path to [Exit] reads it
    before any strong (scalar) redefinition.  Arrays never kill, so an
    array stays live from first read backwards.  Used to decide
    whether a privatized scalar needs its last value preserved, and by
    the editor's variable pane. *)

open Fortran_front

type t

(** [analyze ~live_out ctx cfg] — [live_out] lists names live after
    the unit returns (COMMON variables and formals escape by default;
    pass [~all_escape:true] to keep everything live at exit, the
    conservative editor setting). *)
val analyze : ?all_escape:bool -> Defuse.ctx -> Cfg.t -> t

(** Variables live just before the statement executes. *)
val live_in : t -> Ast.stmt_id -> string list

(** Variables live just after the statement. *)
val live_out : t -> Ast.stmt_id -> string list

val is_live_out : t -> Ast.stmt_id -> string -> bool

(** [live_after t cfg loop_sid] — variables live on the paths leaving
    the loop (not around its back edge).  [is_live_out] of a DO
    statement includes everything its body reads, because the loop
    node's successors include the body; this is the right notion for
    "does the value survive the loop". *)
val live_after : t -> Cfg.t -> Ast.stmt_id -> string list
