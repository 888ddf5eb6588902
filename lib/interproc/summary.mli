(** Whole-program interprocedural analysis coordinator.

    Runs the call graph, Mod/Ref, Kill, regular sections,
    interprocedural constants and aliases once, then hands each
    program unit the oracles the intraprocedural machinery consumes:

    - a {!Scalar_analysis.Defuse.call_oracle} giving each CALL's
      mods/refs/kills in caller space,
    - a {!Dependence.Depenv.call_refs} giving each CALL's array side
      effects as section-precise pseudo-references,
    - asserted values for formals that are interprocedural constants.

    [env_for] packages all three into a ready {!Dependence.Depenv.t}. *)

open Fortran_front

type t

(** [analyze ?telemetry ?base prog] — the summary of [prog].  With
    [base] (the summary of an earlier version of the program), each
    pass re-solves only the units an edit reaches ({!Propagate.run}):
    a unit that is not physically the one [base] analyzed, a caller
    of a unit whose bottom-up facts (Mod/Ref, kills, sections)
    changed, a callee of a unit whose top-down facts (constants,
    aliases) changed.  Every other unit keeps [base]'s facts.  The
    result always equals [analyze prog].

    [telemetry] (default: the process {!Telemetry.default} sink) gets
    a span per step ([interproc.callgraph], [interproc.modref],
    [interproc.ipkill], [interproc.sections], [interproc.ipconst],
    [interproc.aliases]) and the counter [interproc.units_solved]:
    the units solved, summed over the five passes. *)
val analyze : ?telemetry:Telemetry.sink -> ?base:t -> Ast.program -> t

(** Units a bottom-up pass (Mod/Ref, kills, sections) solved in this
    build, sorted. *)
val recomputed : t -> string list

(** Same per-unit facts for every unit: Mod/Ref, kills, sections,
    formal constants and alias pairs. *)
val equal : t -> t -> bool

val callgraph : t -> Callgraph.t
val modref : t -> Modref.t
val kills : t -> Ipkill.t
val sections : t -> Sections.t
val ipconst : t -> Ipconst.t
val aliases : t -> Aliases.t

(** The CALL statements of [unit]: their call oracle, and their
    section-precise array effects.  [unit]'s symbol table is looked
    up (or, for a unit outside the graph, built) once for both. *)
val calls_for :
  t -> Ast.program_unit ->
  Scalar_analysis.Defuse.call_oracle * Dependence.Depenv.call_refs

(** Build a {!Dependence.Depenv.t} for [unit] with full
    interprocedural support, on the call graph's syntax record of
    [unit] ({!Callgraph.syntax}): every environment of a unit the
    summary holds shares its symbol table, CFG, loop nest and control
    dependences.  [asserts] and [config] pass through;
    interprocedural formal constants are appended to the asserted
    values. *)
val env_for :
  ?config:Dependence.Depenv.config ->
  ?asserts:Dependence.Depenv.assertions ->
  t ->
  Ast.program_unit ->
  Dependence.Depenv.t
