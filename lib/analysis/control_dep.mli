(** Control dependences (Ferrante–Ottenstein–Warren construction).

    Statement [y] is control dependent on [x] when [x] has a successor
    from which [y] is always reached (y postdominates it) but [y] does
    not postdominate [x] itself — i.e. [x]'s branch decides whether
    [y] executes.  Ped shows these in the dependence pane alongside
    data dependences and uses them when checking transformation
    safety for conditionals. *)

open Fortran_front

type edge = {
  branch : Ast.stmt_id;     (** the deciding statement (an IF or DO) *)
  dependent : Ast.stmt_id;  (** the statement whose execution it controls *)
}

val compute : Cfg.t -> edge list

(** Statements controlling [sid]. *)
val controllers : edge list -> Ast.stmt_id -> Ast.stmt_id list
