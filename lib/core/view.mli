(** The pane view — what the loops, dependence and variable panes read
    of one (graph, marking, user-private) version, computed lazily and
    kept until one of those inputs changes.

    The view groups the graph's edges by carrier loop once, so a
    loop's blocking check costs the edges that loop carries, not the
    whole graph.  It looks each edge's marking status up at most once
    and remembers each loop's verdict.  {!Session.view} keeps one view
    per session and rebuilds it when the environment, the graph, the
    marking or the user-private list is no longer physically the one
    it was built from; nothing else invalidates it. *)

open Fortran_front
open Dependence

type t

val make :
  env:Depenv.t -> ddg:Ddg.t -> marking:Marking.t ->
  user_private:(Ast.stmt_id * string) list -> t

(** [built_from v ~env ~ddg ~marking ~user_private] — every input is
    physically the one [v] was made from. *)
val built_from :
  t -> env:Depenv.t -> ddg:Ddg.t -> marking:Marking.t ->
  user_private:(Ast.stmt_id * string) list -> bool

(** An edge's status under the marking ({!Marking.status_of}, looked
    up once per edge). *)
val status : t -> Ddg.dep -> Marking.status

(** The loop's DOALL verdict ({!Transform.Parallelize.verdict}) after
    the user's rejections and privatizations, computed once. *)
val verdict : t -> Ast.stmt_id -> Transform.Parallelize.verdict

(** The verdict's blocking edges. *)
val blocking : t -> Ast.stmt_id -> Ddg.dep list

(** The verdict is {!Transform.Parallelize.safe}. *)
val parallelizable : t -> Ast.stmt_id -> bool
