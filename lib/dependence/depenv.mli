(** Bundle of all per-unit analyses the dependence machinery needs.

    Building one of these runs the scalar analyses (reaching
    definitions, liveness, constants) over a unit's {!Unit_syntax}
    record once; dependence testing, variable classification, the
    editor and the transformations all query it.  The record's symbol
    table, CFG, loop nest and control dependences are taken as they
    are, so every environment of one unit version shares them.

    The {!config} switches individual analyses off for the ablation
    experiments (Table 3): each switch corresponds to an analysis the
    Ped evaluation found indispensable.  {!assertions} carry user
    knowledge the editor collected — asserted variable values and
    injectivity ("this index array is a permutation") — which sharpen
    dependence testing exactly as Ped's user assertions do.  The
    optional [oracle] injects interprocedural Mod/Ref information into
    CALL handling — omitted, calls are treated conservatively. *)

open Fortran_front
open Scalar_analysis

type config = {
  use_constants : bool;      (** constant propagation feeds bounds/symbols *)
  use_symbolics : bool;      (** forward substitution, auxiliary induction
                                 variables, symbolic-term cancellation *)
  use_privatization : bool;  (** scalar kill → private variables *)
  recognize_reductions : bool;
  use_array_privatization : bool;
      (** the array-kill extension ({!Arrayprivate}): work arrays
          rewritten every iteration stop blocking parallelization *)
}

(** Everything on — Ped's full analysis. *)
val full_config : config

(** Dependence tests over literal subscripts only. *)
val base_config : config

type assertions = {
  asserted_values : (string * int) list;
      (** "N is 512": treated as a compile-time constant *)
  asserted_ranges : (string * int * int) list;
      (** "N is between 1 and 512": bounds loop trip counts, widening
          Banerjee ranges soundly (disproofs only use the upper end) *)
  asserted_injective : string list;
      (** "IDX is a permutation": [A(IDX(e))] matches only equal [e] *)
}

val no_assertions : assertions

(** The digest of a config and an assertion set, written through
    {!Fortran_front.Canon}: the one key of everything an analysis
    result depends on besides its unit and that unit's interprocedural
    view.  The engine's per-unit analysis key and the dependence
    buckets' global part both read it. *)
val settings_digest : config -> assertions -> Digest.t

(** Alias relation between two array names of the unit, supplied by
    interprocedural analysis: [`Aligned] — same storage, same origin
    (subscripts comparable); [`May] — overlap at unknown offset;
    [`No] — provably distinct (the default for distinct names). *)
type alias_oracle = string -> string -> [ `Aligned | `May | `No ]

(** Array side effects of a CALL statement, as pseudo-references:
    [(array, subscripts option, is_write)].  [None] subscripts mean
    the whole array.  Interprocedural section analysis supplies a
    precise version; the default treats every array actual and COMMON
    array as wholly read and written. *)
type call_refs = Ast.stmt -> (string * Ast.expr list option * bool) list

type t = {
  punit : Ast.program_unit;
  tbl : Symbol.table;
  ctx : Defuse.ctx;
  cfg : Cfg.t;
  reaching : Reaching.t;
  liveness : Liveness.t;
  constants : Constants.t;
  control : Control_dep.edge list;
  nest : Loopnest.t;
  config : config;
  asserts : assertions;
  call_refs : call_refs;
  alias : alias_oracle;
}

val make :
  ?oracle:Defuse.call_oracle ->
  ?call_refs:call_refs ->
  ?alias:alias_oracle ->
  ?config:config ->
  ?asserts:assertions ->
  Unit_syntax.t ->
  t

(** Statement lookup by id. *)
val stmt : t -> Ast.stmt_id -> Ast.stmt option

(** Constant value of an expression at a statement, honouring the
    config switch and asserted values. *)
val int_at : t -> Ast.stmt_id -> Ast.expr -> int option

(** Constant value of a variable at a statement (config- and
    assertion-aware). *)
val const_var_at : t -> Ast.stmt_id -> string -> int option

(** Upper bound of an expression's value from asserted ranges and
    constants ([None] when unbounded).  Monotone widening: only +, −,
    and scaling by literals are tracked. *)
val upper_bound_at : t -> Ast.stmt_id -> Ast.expr -> int option
