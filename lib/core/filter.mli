(** View filtering — the user-controlled emphasis/concealment of
    information that made Ped's panes usable on real codes.

    Dependence filters select by variable, dependence type, carrier,
    marking status, endpoint statement, or "carried only" (hide the
    loop-independent noise).  Source filters select lines by content
    or structure. *)

open Fortran_front
open Dependence

type dep_filter = {
  f_var : string option;
  f_kind : Ddg.kind option;
  f_carried_only : bool;
  f_loop : Ast.stmt_id option;     (** only deps carried by this loop *)
  f_stmt : Ast.stmt_id option;     (** only deps touching this statement *)
  f_status : Marking.status option;
  f_hide_scalar : bool;            (** hide scalar (non-array) deps *)
  f_hide_control : bool;
}

(** Everything visible except control dependences (Ped's default). *)
val default_dep_filter : dep_filter

(** No concealment at all. *)
val show_all : dep_filter

(** [apply_dep_filter f status deps] — [status] gives each edge's
    marking status ({!View.status} in a session). *)
val apply_dep_filter :
  dep_filter -> (Ddg.dep -> Marking.status) -> Ddg.dep list -> Ddg.dep list

type src_filter =
  | Src_all
  | Src_contains of string     (** lines containing this text *)
  | Src_loops                  (** loop headers only *)

val apply_src_filter :
  src_filter -> (Ast.stmt_id option * string) list ->
  (Ast.stmt_id option * string) list

val dep_filter_to_string : dep_filter -> string
