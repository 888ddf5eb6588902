(** Fortran values as the evaluator computes with them, and their
    conversions.  Storage lives in {!Store}. *)

type value = VI of int | VR of float | VL of bool | VS of string

val pp_value : Format.formatter -> value -> unit
val to_float : value -> float
val to_int : value -> int
val to_bool : value -> bool

(** [convert typ v] — Fortran assignment conversion (REAL→INTEGER
    truncates toward zero, INTEGER→REAL widens). *)
val convert : Fortran_front.Ast.typ -> value -> value

val zero_of : Fortran_front.Ast.typ -> value
