(** Per-unit memo of one bottom-up interprocedural function.

    An entry belongs to one program unit value and maps the inputs the
    function read from other units (callee results, callee formals,
    whether each callee is known) to its result.  A unit is matched
    by physical equality ([==]): the AST is immutable, and an edit
    replaces only the units it touches, so every other unit of the
    edited program is the very value the previous build saw.  Keys are
    compared structurally and must be pure data.

    A memo is filled during one build and only read afterwards, when
    it serves as the [base] of the next build. *)

open Fortran_front

type ('k, 'v) t

val create : unit -> ('k, 'v) t

(** [find ?base m u key f] — the result for [u] under [key]: recorded
    earlier in this build, else taken from [base], else [f ()]
    (recorded as a miss).  The result is recorded in [m] either way. *)
val find : ?base:('k, 'v) t -> ('k, 'v) t -> Ast.program_unit -> 'k -> (unit -> 'v) -> 'v

(** Names of the units for which [f] ran, sorted. *)
val missed : ('k, 'v) t -> string list
