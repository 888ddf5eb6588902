(** Per-loop variable classification — the analysis behind Ped's
    variable pane.

    For a DO loop, every scalar mentioned in the body is classified:

    - [Induction]: the loop's induction variable, or an auxiliary
      induction variable ([K = K + c] executed exactly once per
      iteration at the top level of the body).
    - [Reduction]: accumulated with a single commutative-associative
      operation ([S = S + e], [S = S * e], [S = MAX(S, e)],
      [S = MIN(S, e)]) and not otherwise referenced.  Recognizing
      these is the enhancement the Ped evaluation called for.
    - [Private]: written before read on every iteration path (scalar
      kill), so each iteration can get its own copy.
      [needs_last_value] is set when the scalar is live after the
      loop, in which case parallelization must copy out the final
      iteration's value.
    - [Shared_safe]: read-only in the loop.
    - [Shared_unsafe]: everything else — a loop-carried scalar
      dependence that blocks parallelization.

    Classification is conservative in the presence of unstructured
    control flow: a body containing GOTO/RETURN/STOP downgrades all
    written scalars to [Shared_unsafe]. *)

open Fortran_front

type reduction_op = Rsum | Rprod | Rmax | Rmin

type classification =
  | Induction of { stride : Symbolic.Linear.t option }
  | Reduction of reduction_op
  | Private of { needs_last_value : bool }
  | Shared_safe
  | Shared_unsafe

val classification_to_string : classification -> string

type t

(** [classify ?recognize_reductions ~cfg ctx liveness loop] — classify
    all scalars of [loop]'s body: the {!classify_nest} walk over the
    loop alone.  [recognize_reductions] defaults to [true]; pass
    [false] to reproduce original Ped behaviour (sum reductions left as
    shared, as the evaluation observed).  Last-value liveness uses the
    precise loop-exit paths ({!Liveness.live_after}), read only when a
    private scalar's class is asked for. *)
val classify :
  ?recognize_reductions:bool -> cfg:Cfg.t -> Defuse.ctx -> Liveness.t ->
  Ast.stmt -> t

(** One loop of a {!classify_nest} walk.  Positions count the walked
    statements in preorder ({!Ast.fold_stmts} order) from 0: the
    loop's body is [lc_first .. lc_stop - 1], and its DO statement is
    at [lc_first - 1]. *)
type loop_classes = {
  lc_stmt : Ast.stmt;
  lc_first : int;
  lc_stop : int;
  lc_classes : t;
}

(** [classify_nest ?recognize_reductions ?facts ~cfg ctx liveness
    stmts] — classify every DO loop of [stmts] in one bottom-up walk,
    reading each statement's facts once; the loops come out in
    preorder ({!Loopnest.loops} order for a unit's body).  [facts pos]
    gives the {!Defuse.facts} of the statement at preorder position
    [pos], for a caller that holds them already; by default the walk
    asks [Defuse]. *)
val classify_nest :
  ?recognize_reductions:bool -> ?facts:(int -> Defuse.facts) -> cfg:Cfg.t ->
  Defuse.ctx -> Liveness.t -> Ast.stmt list -> loop_classes list

val lookup : t -> string -> classification option

(** All classified variables with their classes, sorted by name. *)
val all : t -> (string * classification) list

(** Scalars whose classification permits parallel execution of the
    loop (everything except [Shared_unsafe]). *)
val parallelizable : t -> bool

(** The variables blocking parallelization, i.e. the
    [Shared_unsafe] ones, sorted by name. *)
val blockers : t -> string list

(** Auxiliary induction variables with their per-iteration stride and
    the statement performing the increment. *)
val aux_inductions : Defuse.ctx -> Ast.stmt -> (string * int * Ast.stmt_id) list

(** [reduction_op_of v rhs] — the operation when [v = rhs] is a
    reduction statement of [v]: [v] occurs exactly once in [rhs], as a
    whole positive additive term, a whole factor, or an argument of
    MAX/MIN. *)
val reduction_op_of : string -> Ast.expr -> reduction_op option
