(** Whole-program interprocedural analysis coordinator.

    Runs the call graph, Mod/Ref, Kill, regular sections and
    interprocedural constants once, then hands each program unit the
    oracles the intraprocedural machinery consumes:

    - a {!Scalar_analysis.Defuse.call_oracle} giving each CALL's
      mods/refs/kills in caller space,
    - a {!Dependence.Depenv.call_refs} giving each CALL's array side
      effects as section-precise pseudo-references,
    - asserted values for formals that are interprocedural constants.

    [env_for] packages all three into a ready {!Dependence.Depenv.t}. *)

open Fortran_front

type t

(** [analyze ?base prog] — the summary of [prog].  With [base] (the
    summary of an earlier version of the program), each bottom-up
    per-unit result (call-free Mod/Ref effects, kills, sections) is
    reused when its unit is physically the one [base] analyzed and
    every input it reads from other units is unchanged, so an edit
    re-solves only the units it reaches.  The fixed-point loops and
    their visiting order are the same with or without [base], so the
    result always equals [analyze prog]. *)
val analyze : ?base:t -> Ast.program -> t

(** Units for which this build ran a bottom-up per-unit analysis
    instead of reusing a result, sorted. *)
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

(** Call oracle for CALL statements appearing in [unit]. *)
val oracle_for : t -> Ast.program_unit -> Scalar_analysis.Defuse.call_oracle

(** Section-precise array effects of CALL statements in [unit]. *)
val call_refs_for : t -> Ast.program_unit -> Dependence.Depenv.call_refs

(** Build a {!Dependence.Depenv.t} for [unit] with full
    interprocedural support.  [asserts] and [config] pass through;
    interprocedural formal constants are appended to the asserted
    values. *)
val env_for :
  ?config:Dependence.Depenv.config ->
  ?asserts:Dependence.Depenv.assertions ->
  t ->
  Ast.program_unit ->
  Dependence.Depenv.t
