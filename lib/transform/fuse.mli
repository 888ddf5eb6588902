(** Loop fusion — merge two adjacent conformable loops.

    Applicable when the two DO statements are adjacent siblings with
    structurally identical bounds and step.  Safety is decided by
    building the fused candidate and re-analyzing it: fusion is unsafe
    exactly when the fused loop carries a dependence from a statement
    of the second body to a statement of the first (a
    fusion-preventing dependence — it would make an iteration of the
    second loop precede work of the first that originally ran before
    it).  Profitable as larger parallel grain when both loops were
    parallelizable. *)

open Fortran_front
open Dependence

(** [analyze] re-analyses the fused candidate. *)
val diagnose :
  analyze:(Ast.program_unit -> Depenv.t * Ddg.t) ->
  Depenv.t -> Ddg.t -> Ast.stmt_id -> Ast.stmt_id -> Diagnosis.t

(** [apply u sid1 sid2] — the fused unit; the first loop's statement
    id and induction variable survive (the second body is renamed to
    the first induction variable if they differ). *)
val apply : Ast.program_unit -> Ast.stmt_id -> Ast.stmt_id -> Ast.program_unit
