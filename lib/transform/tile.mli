(** Loop tiling — strip-mine the inner loop of a perfect pair and move
    the strip loop outward, giving blocked traversal of the iteration
    space (the memory-hierarchy transformation ParaScope's compilers
    used; Ped exposes it as one power-steering step).

    [tile (I, J) by B] yields [(JS, I, J')] with [J'] running over a
    [B]-wide strip.  Safety is the interchange safety of [(I, JS)] on
    the stripped candidate, which the diagnosis evaluates directly. *)

open Fortran_front
open Dependence

(** [analyze] re-analyses the stripped candidate. *)
val diagnose :
  analyze:(Ast.program_unit -> Depenv.t * Ddg.t) ->
  Depenv.t -> Ddg.t -> Ast.stmt_id -> block:int -> Diagnosis.t
val apply : Depenv.t -> Ddg.t -> Ast.stmt_id -> block:int -> Ast.program_unit
