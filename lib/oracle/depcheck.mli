(** The brute-force dependence oracle.

    Runs the program under the simulator's access trace, enumerates
    every ordered pair of accesses to the same array element with at
    least one write, classifies each pair by (kind, variable, source
    statement, sink statement, carrying level, direction vector over
    the common loops), and checks that the DDG reports a matching
    dependence — every concretely realized dependence must be covered
    (soundness).  The converse is precision, not soundness: array
    edges the DDG carries that no concrete pair realizes are counted
    as [spurious] but are not failures.

    Scalar dependences are out of scope by design: the analysis
    deliberately omits carried edges for recognized reductions,
    privatizable scalars, and auxiliary induction variables, so only
    array references (the domain of the dependence tests) are checked.

    The check assumes structured control flow (no GOTO), which the
    generator guarantees: within one iteration, execution order then
    coincides with flattened source order, matching how the DDG
    orients loop-independent edges.

    The oracle's scope is the Main unit, whose graph the caller
    passes: on multi-unit programs (the stress factory's), accesses
    attributed to callee statements are dropped from the trace.  The
    generators keep CALLs at statement level — never inside a loop —
    so this loses no within-unit coverage. *)

open Fortran_front
open Dependence

(** Why a concrete dependence class was not covered. *)
type why =
  | Edge       (** no dependence at all between the two statements *)
  | Level      (** an edge exists, but not at the realized level *)
  | Direction  (** level matches, but the realized direction vector
                   is absent *)

type miss = {
  m_kind : Ddg.kind;
  m_var : string;
  m_src : Ast.stmt_id;
  m_dst : Ast.stmt_id;
  m_level : int option;
  m_dirs : Dtest.direction array;
  m_why : why;
  m_count : int;  (** concrete pairs in this class *)
}

type report = {
  classes : int;   (** distinct concrete dependence classes observed *)
  misses : miss list;
  realized : int;  (** DDG array deps matched by some concrete class *)
  spurious : int;  (** DDG array deps never realized (precision) *)
  spurious_by_tier : (string * int) list;
      (** the spurious edges grouped by the provenance tier that
          decided them, sorted — which analysis stage over-approximates *)
  truncated : bool;  (** some array element's access list exceeded
                         [cell_cap] and was subsampled — missing
                         coverage possible, soundness of reported
                         misses unaffected *)
}

val miss_to_string : miss -> string

(** [check ddg program] — trace and compare.
    @param max_steps simulator budget (default 2_000_000)
    @param cell_cap per-element access-list cap before even
      subsampling (default 160) *)
val check : ?max_steps:int -> ?cell_cap:int -> Ddg.t -> Ast.program -> report

(** [check_main program] — {!check} against the graph of the Main
    unit, analysed through an intraprocedural {!Engine} as
    {!Semcheck} analyses it: the fuzz driver's and the corpus
    replay's dependence oracle. *)
val check_main : Ast.program -> report
