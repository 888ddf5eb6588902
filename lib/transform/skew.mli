(** Loop skewing — shift the inner iteration space by a multiple of
    the outer induction variable.

    Rewrites the inner loop [DO J = lo, hi] of a perfect nest as
    [DO J = lo + f·I, hi + f·I] with every use of [J] in the body
    replaced by [J − f·I].  A pure change of coordinates, so always
    safe; profitable when it converts a [(<, >)]-direction dependence
    (which blocks interchange) into [(<, <)] — the wavefront recipe:
    skew, interchange, parallelize the new inner loop. *)

open Fortran_front
open Dependence

(** [analyze] re-analyses the skewed and the interchanged candidates. *)
val diagnose :
  analyze:(Ast.program_unit -> Depenv.t * Ddg.t) ->
  Depenv.t -> Ddg.t -> Ast.stmt_id -> factor:int -> Diagnosis.t
val apply : Ast.program_unit -> Ast.stmt_id -> factor:int -> Ast.program_unit
