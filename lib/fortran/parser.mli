(** Recursive-descent parser for the Fortran 77 subset.

    Supported program units: [PROGRAM], [SUBROUTINE], [typ FUNCTION].
    Supported statements: assignment, block and logical [IF],
    [DO]/[ENDDO], labeled [DO n] ... [n CONTINUE] (including shared
    terminator labels across nested loops), [DOALL]/[PARALLEL DO],
    [CALL], [GOTO], [CONTINUE], [RETURN], [STOP], [PRINT *,...] and
    [WRITE(*,*)] (both become {!Ast.Print}).
    Supported declarations: type statements with dimension lists,
    [DIMENSION], [PARAMETER], [COMMON], [IMPLICIT NONE] (accepted and
    ignored), [EXTERNAL] (accepted and ignored).

    Array references and function calls are both parsed as
    {!Ast.Index}; the {!Symbol} pass disambiguates them. *)

exception Error of string * Loc.t

(** [parse_program ~file src] parses a whole source file into a
    {!Ast.program}.  Statement ids are drawn from the global supply
    ({!Ast.fresh_sid}).
    @raise Error on a syntax error.
    @raise Lexer.Error on a lexical error. *)
val parse_program : file:string -> string -> Ast.program

(** [parse_expr_string s] parses a single expression, as typed by a
    user into the editor (assertions, filter predicates).
    @raise Error if [s] is not exactly one expression. *)
val parse_expr_string : string -> Ast.expr

(** [parse_stmts_string ~file s] parses a statement sequence (no
    enclosing program unit) — used by the editor to parse text typed
    into the source pane. *)
val parse_stmts_string : file:string -> string -> Ast.stmt list

(** [guard f] — [Ok (f ())], or the syntax or lexical error [f] raised
    as ["syntax error at FILE:LINE:COL: MSG"] (["lexical error at …"]):
    how every front end reports bad source. *)
val guard : (unit -> 'a) -> ('a, string) result
