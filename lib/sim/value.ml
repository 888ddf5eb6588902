open Fortran_front

type value = VI of int | VR of float | VL of bool | VS of string

let pp_value ppf = function
  | VI n -> Format.pp_print_int ppf n
  | VR f -> Format.fprintf ppf "%.6g" f
  | VL b -> Format.pp_print_string ppf (if b then "T" else "F")
  | VS s -> Format.pp_print_string ppf s

let to_float = function
  | VI n -> float_of_int n
  | VR f -> f
  | VL b -> if b then 1.0 else 0.0
  | VS _ -> nan

let to_int = function
  | VI n -> n
  | VR f -> int_of_float (Float.trunc f)
  | VL b -> if b then 1 else 0
  | VS _ -> 0

let to_bool = function
  | VL b -> b
  | VI n -> n <> 0
  | VR f -> f <> 0.0
  | VS _ -> false

let convert typ v =
  match (typ, v) with
  | Ast.Tinteger, VR f -> VI (int_of_float (Float.trunc f))
  | Ast.Tinteger, VI _ -> v
  | (Ast.Treal | Ast.Tdouble), VI n -> VR (float_of_int n)
  | (Ast.Treal | Ast.Tdouble), VR _ -> v
  | Ast.Tlogical, _ -> VL (to_bool v)
  | _, _ -> v

let zero_of = function
  | Ast.Tinteger -> VI 0
  | Ast.Treal | Ast.Tdouble -> VR 0.0
  | Ast.Tlogical -> VL false
