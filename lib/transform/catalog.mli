(** The transformation catalog — one uniform entry per transformation,
    used by the editor's command dispatch and the evaluation's
    transformation matrix (Table 4). *)

open Fortran_front
open Dependence

(** Arguments a transformation consumes.  The editor parses user
    input into one of these; a transformation handed the wrong shape
    reports itself inapplicable rather than raising. *)
type args =
  | On_loop of Ast.stmt_id
  | On_pair of Ast.stmt_id * Ast.stmt_id      (** loop or statement pair *)
  | With_factor of Ast.stmt_id * int          (** skew/unroll/strip factor *)
  | With_var of Ast.stmt_id * string          (** scalar expansion target *)

(** The environment and graph of a candidate rewrite of the unit, as
    if it replaced the unit: skew, tile and fuse judge their rewrites
    so.  The editor passes its engine's candidate analysis. *)
type analyzer = Ast.program_unit -> Depenv.t * Ddg.t

type entry = {
  name : string;        (** command name, e.g. ["interchange"] *)
  describe : string;    (** one-line description for the editor's menu *)
  needs : string;       (** argument syntax help, e.g. ["<loop>"] *)
  diagnose : analyze:analyzer -> Depenv.t -> Ddg.t -> args -> Diagnosis.t;
  apply : Depenv.t -> Ddg.t -> args -> (Ast.program_unit, Diagnosis.t) result;
      (** [Error] carries the diagnosis explaining the refusal — both
          "wrong argument shape" and "called on something the
          diagnosis rejected" travel this one typed channel; apply
          never raises *)
}

val all : entry list
val find : string -> entry option
val names : string list

(** [sites env] — every candidate (transformation, argument) instance
    of the unit: each catalog entry on each loop of the nest (with the
    given factor values where one is needed, and each scalar written
    in the loop body where a variable is needed), fusion on adjacent
    DO pairs, statement interchange on adjacent assignment pairs.
    This is the cross product the fuzzing oracles and the property
    suite sweep — diagnosis decides which instances are live. *)
val sites : ?factors:int list -> Depenv.t -> (string * args) list
