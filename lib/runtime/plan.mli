(** Parallel-loop execution plans.

    The static analysis already knows, per loop, which scalars are
    privatizable, which are reductions (and with which operator), and
    which work arrays are privatizable ({!Scalar_analysis.Varclass},
    {!Dependence.Arrayprivate}).  The runtime consumes that knowledge:
    each worker gets private copies of the plan's variables, reduction
    accumulators start at the operator identity and are combined at
    the join, and the dynamic validator excludes planned storage from
    conflict monitoring (writes to privatized storage are not
    dependences). *)

open Fortran_front
open Scalar_analysis

type t = {
  p_iv : string;  (** the loop's induction variable *)
  p_privates : string list;
      (** scalars each worker copies: [Private] classifications
          (inner-loop induction variables included) *)
  p_inductions : (string * int) list;
      (** auxiliary induction scalars ([K = K + c] once per
          iteration) with their constant stride [c].  Workers compute
          the closed form [K0 + k*c] per iteration instead of sharing
          the accumulating cell, and the final value [K0 + trip*c] is
          written back at the join. *)
  p_reductions : (string * Varclass.reduction_op) list;
  p_arrays : string list;  (** privatizable work arrays *)
}

(** Plans for every PARALLEL DO loop of the program, keyed by the
    loop statement id.  Each unit's environment comes from the
    interprocedural summary ({!Interproc.Summary.env_for}), the one the
    editor approved the loop with, so a scalar a CALL kills in every
    iteration is private here as it is there: [summary] when the
    caller has one of [program], else one built when the first
    PARALLEL DO needs it.  Runs the per-unit scalar analyses once. *)
val build :
  ?summary:Interproc.Summary.t -> Ast.program -> (Ast.stmt_id, t) Hashtbl.t

(** An empty fallback plan (privatizes only the induction
    variable). *)
val trivial : string -> t
