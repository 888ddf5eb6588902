(** The editor session — Ped's central state.

    A session's state is one immutable value: the program, the user's
    assertions, the dependence markings and the user-privatized
    variables.  Every command that changes any of them (edit,
    transformation, assertion, mark, private declaration) commits a
    whole new state under a label, and {!undo} and {!redo} swap whole
    states, so undoing an assertion, a mark or a private declaration
    reverts it like an edit.  Focus, selection, view filters and the
    simulation order are navigation, outside the state and the
    history.  The analyses live in an incremental {!Engine}, handed
    each installed state's program and assertions and queried on
    demand; the session type is abstract, so callers cannot bypass
    invalidation by poking state directly.

    Mutations (focus, edit, transformation, undo, redo, assertion)
    only change state.  The focus unit is analysed when a command
    first reads it ({!env}, {!ddg}, the panes, {!diagnose}, ...), and
    that answer is kept while the program, the assertions and the
    focus unit are the ones it was asked under: an edit followed by
    an undo, or three focuses in a row, analyse nothing.  Only
    {!load} analyses eagerly.

    Parallelizability as the editor reports it respects the user's
    contributions: rejected dependences are ignored and
    user-privatized scalars drop their dependences — exactly the
    "dependence deletion" workflow the evaluation describes. *)

open Fortran_front
open Dependence

type t

(** [load ?config ?interproc ?caching program ~unit_name] — start a
    session focused on [unit_name].  [interproc] (default true) runs
    whole-program analysis and feeds every CALL's side effects into
    the unit analyses.  [caching] (default true) selects the
    incremental engine; [~caching:false] recomputes everything after
    every change — the from-scratch baseline the bench harness
    measures against.  [sharing] hooks the engine into a cross-session
    cache (the analysis server's).  [runner] fans dependence-test
    buckets out across a domain pool on every (re)analysis
    ([Runtime.Pool.analysis_runner]); results are identical with or
    without it.  [history_limit] (default 1000, must
    be >= 1) bounds the undo stack: the oldest entries are dropped once
    it is full, so long-running server sessions don't grow memory
    linearly in retained state snapshots.  [telemetry] is handed to
    the engine, so the interactive, bench, fuzz and runtime paths can
    all emit to one sink (default: a fresh private sink per
    session).  Raises [Invalid_argument] when [unit_name] names no
    unit, or with {!Ast.check_labels}'s message when a GOTO names a
    label its unit lacks. *)
val load :
  ?config:Depenv.config -> ?interproc:bool -> ?caching:bool ->
  ?sharing:Engine.sharing -> ?runner:Ddg.runner -> ?history_limit:int ->
  ?telemetry:Telemetry.sink ->
  Ast.program -> unit_name:string -> t

(** Parse source text and load it. *)
val load_source :
  ?config:Depenv.config -> ?interproc:bool -> ?caching:bool ->
  ?sharing:Engine.sharing -> ?runner:Ddg.runner -> ?history_limit:int ->
  ?telemetry:Telemetry.sink ->
  file:string -> string -> unit_name:string option -> t

(** {2 State accessors} *)

val program : t -> Ast.program
val unit_name : t -> string

(** Scalar environment of the focus unit (engine-served). *)
val env : t -> Depenv.t

(** Dependence graph of the focus unit (engine-served). *)
val ddg : t -> Ddg.t

val marking : t -> Marking.t
val assertions : t -> Depenv.assertions
val user_private : t -> (Ast.stmt_id * string) list
val selected : t -> Ast.stmt_id option

(** The program as loaded, for the editor's diff view. *)
val original : t -> Ast.program

val config : t -> Depenv.config

(** The interprocedural summary ([None] when loaded with
    [~interproc:false]). *)
val interproc : t -> Interproc.Summary.t option

val dep_filter : t -> Filter.dep_filter
val set_dep_filter : t -> Filter.dep_filter -> unit
val src_filter : t -> Filter.src_filter
val set_src_filter : t -> Filter.src_filter -> unit

(** Iteration order for simulated parallel loops — [Reverse] or
    [Shuffled] expose order-dependent (unsafe) parallelizations. *)
val sim_order : t -> Sim.Interp.order

val set_sim_order : t -> Sim.Interp.order -> unit

(** Labels of the changes on the undo stack, newest first: [edit], a
    transformation's name, or the command's words for the others
    ([assert perm IDX], [mark 7 reject], [private s5 T]). *)
val history : t -> string list

(** The bound on the undo stack this session was loaded with. *)
val history_limit : t -> int

(** Engine cache statistics (the [engine] command, [--engine-stats]). *)
val engine_stats : t -> Engine.stats

val engine_report : t -> string

(** The session's telemetry sink (the engine's). *)
val telemetry : t -> Telemetry.sink

(** {2 Analysis} *)

(** Ask the engine for the focus unit's analyses now (a cache-served
    no-op unless something actually changed), even when the session
    holds a current answer.  Scripts and tests use it to take the
    analysis cost at a chosen point; commands never need to, as every
    read asks for what is stale. *)
val reanalyze : t -> unit

(** Switch the focus unit. *)
val focus : t -> string -> (unit, string) result

(** Loops of the focus unit, in preorder. *)
val loops : t -> Loopnest.loop list

val select : t -> Ast.stmt_id -> (unit, string) result

(** Dependences the dependence pane currently shows: the selected
    loop's (or the whole unit's), through the active filter. *)
val visible_deps : t -> Ddg.dep list

(** The pane view of the current (graph, marking, user-private)
    version: built on first use, kept until one of those changes. *)
val view : t -> View.t

(** Dependences blocking parallelization of a loop, after markings and
    user privatization. *)
val blocking : t -> Ast.stmt_id -> Ddg.dep list

val is_parallelizable : t -> Ast.stmt_id -> bool

(** Loops that could be marked PARALLEL DO right now. *)
val parallelizable_loops : t -> Loopnest.loop list

(** {2 User contributions} *)

(** [mark_dep t id status] — mark dependence [#id] of the focus unit's
    graph; [Error] when the graph has no such edge. *)
val mark_dep : t -> int -> Marking.status -> (unit, string) result

(** [assert_value t var n] — "[var] is [n]": feeds constant
    propagation and dependence testing.  Assertions hold for the whole
    program, so [var] must be a scalar of some unit. *)
val assert_value : t -> string -> int -> (unit, string) result

(** [assert_injective t arr] — "[arr] is a permutation": index-array
    subscripts through [arr] compare by their argument.  [arr] must be
    an array of some unit. *)
val assert_injective : t -> string -> (unit, string) result

(** [assert_range t var lo hi] — "[var] is between [lo] and [hi]":
    bounds trip counts (disproofs may use the upper end; existence
    proofs may not).  [var] must be a scalar of some unit. *)
val assert_range : t -> string -> int -> int -> (unit, string) result

(** [privatize t loop var] — user declares [var] private in [loop],
    which must be a loop of the focus unit, and [var] a scalar of it. *)
val privatize : t -> Ast.stmt_id -> string -> (unit, string) result

(** {2 Transformation and editing} *)

(** [diagnose t name args] — the power-steering diagnosis, without
    changing anything: what the [preview] and [explain] commands print,
    what [transform] checks and what [advise] reads.  It respects the
    session's user contributions: parallelize renders the view's
    verdict (rejected dependences, privatized scalars).  Skew, tile
    and fuse analyse their candidate rewrites through the engine
    ({!Engine.candidate}), which leaves the focus unit's analysis as
    it was. *)
val diagnose :
  t -> string -> Transform.Catalog.args -> (Transform.Diagnosis.t, string) result

(** [transform ?force t name args] — diagnose and, when applicable and
    safe (or [force]d by the user, as Ped permits), apply.
    Returns the diagnosis and whether it was applied; when the
    rewrite itself refuses, its diagnosis is returned with [false]. *)
val transform :
  ?force:bool -> t -> string -> Transform.Catalog.args ->
  (Transform.Diagnosis.t * bool, string) result

(** [parallelize_safe_loops t] — visit every unit and, in {!loops}
    order, apply [transform "parallelize"] to each loop
    {!is_parallelizable} approves (so an outer loop is marked before
    its inner ones, each check seeing the marks made before it).
    Restores the focus unit and selected loop, and returns the number
    of loops it marked.  [ped --execute], [ped compile], the bench
    and the fuzzer's runtime oracle all parallelize through it. *)
val parallelize_safe_loops : t -> int

(** [edit_stmt t sid text] — replace a statement of the focus unit
    with re-parsed [text] (the source pane's editing); [Error "no
    statement sN"] when the unit has no statement [sid].  An edit that
    leaves a GOTO without its label, by adding the GOTO or deleting the
    label, is refused with {!Ast.check_labels}'s message. *)
val edit_stmt : t -> Ast.stmt_id -> string -> (unit, string) result

(** [undo t] restores the state before the newest change on the undo
    stack — program, assertions, markings and private declarations
    together — and moves that change to the redo stack; [redo t] is
    the same move back.  A command that changed nothing, or was
    refused, recorded nothing to undo. *)
val undo : t -> (unit, string) result

val redo : t -> (unit, string) result

(** {2 Execution} *)

(** Simulate the whole program: (sequential cycles, parallel cycles,
    output lines). *)
val simulate :
  ?processors:int -> t -> (float * float * string list, string) result

(** Interprocedural callee-cost oracle over the session's program —
    feeds the estimator so calls are priced by their callee's body.
    Callees are priced on demand from {!Engine.env}, once per program
    value and assertions, in a [session.callee_cost] span. *)
val callee_cost : t -> string -> float option
