(** The fixed-point walk every interprocedural pass shares.

    A pass is a per-unit function, [solve], that reads other units'
    facts: a bottom-up pass ({!Callees_first}: Mod/Ref, kills,
    sections) reads its callees', a top-down pass ({!Callers_first}:
    constants, aliases) its callers'.  [run] walks the call graph's
    strongly connected components in that order, solving a
    non-recursive unit once and iterating a recursive component until
    no member's fact changes.

    With [base] (the same pass over the graph [cg] was built from,
    {!Callgraph.build} [~base]), a unit is solved only when it was
    rebuilt, or when a unit it reads was rebuilt or got a fact that
    differs from [base]'s; every other unit keeps [base]'s fact, shared
    by reference.  A top-down pass also re-solves the callees a rebuilt
    unit had in [base], so a removed CALL clears the facts it gave.
    Without [base] every unit is solved: the first build is the same
    walk with every unit rebuilt, and its result is what any build
    with [base] must equal. *)

open Fortran_front

type direction = Callees_first | Callers_first

(** One pass's facts: a unit without one has the pass's empty fact. *)
type 'a t

(** [run ?base direction ~equal ~solve cg] — [solve find u] computes
    [u]'s fact from the facts [find] gives for other units ([None]
    for no fact, which is also how a recursive component's members
    start); it returns [None] for the empty fact.  [equal] decides
    whether a re-solved fact differs from [base]'s. *)
val run :
  ?base:'a t ->
  direction ->
  equal:('a -> 'a -> bool) ->
  solve:((string -> 'a option) -> Ast.program_unit -> 'a option) ->
  Callgraph.t ->
  'a t

val find : 'a t -> string -> 'a option
val graph : 'a t -> Callgraph.t

(** Units this build solved, sorted. *)
val solved : 'a t -> string list
