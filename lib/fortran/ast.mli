(** Abstract syntax for the Fortran 77 subset.

    Statements carry a unique integer id ({!stmt_id}) assigned by the
    parser (and kept fresh by transformations via {!fresh_sid}); the
    dependence graph and editor use ids as stable endpoints.

    Array references and function calls are both parsed as {!Index}
    nodes; {!Symbol} resolution later distinguishes them (the parser
    cannot: [F(I)] is an array element or a call depending on
    declarations). *)

type typ = Tinteger | Treal | Tdouble | Tlogical

type binop =
  | Add | Sub | Mul | Div | Pow
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type unop = Neg | Not

type expr =
  | Int of int
  | Real of float
  | Logic of bool
  | Str of string
  | Var of string                 (** scalar variable reference *)
  | Index of string * expr list   (** array element or function call *)
  | Bin of binop * expr * expr
  | Un of unop * expr

type stmt_id = int

(** DO-loop header.  [step = None] means the default step of 1.
    [parallel] marks the loop as a DOALL: Ped's parallelization
    transformation simply flips this bit once safety is established. *)
type do_header = {
  dvar : string;   (** induction variable *)
  lo : expr;
  hi : expr;
  step : expr option;
  parallel : bool;
}

type stmt = { sid : stmt_id; label : int option; loc : Loc.t; node : stmt_node }

and stmt_node =
  | Assign of expr * expr
      (** lhs is [Var] or [Index]; anything else is a parse error *)
  | If of (expr * stmt list) list * stmt list
      (** branches (condition, body) for IF/ELSE IF...; final else body *)
  | Do of do_header * stmt list
  | Call of string * expr list
  | Goto of int
  | Continue
  | Return
  | Stop
  | Print of expr list

(** A variable or array declaration.  Array dimensions are
    [(lower, upper)] bound pairs; the lower bound defaults to [Int 1]. *)
type decl = {
  dname : string;
  dtyp : typ;
  dims : (expr * expr) list;      (** empty for scalars *)
  init : expr option;             (** PARAMETER value — a true constant *)
  data_init : expr option;        (** DATA value — an initial value only;
                                      the variable remains assignable *)
  common_block : string option;   (** COMMON block name, if any *)
}

type unit_kind =
  | Main
  | Subroutine of string list          (** formal parameter names *)
  | Function of typ * string list

type program_unit = {
  uname : string;
  kind : unit_kind;
  decls : decl list;
  implicit_none : bool;         (** IMPLICIT NONE was given *)
  implicits : (typ * (char * char) list) list;
      (** IMPLICIT REAL (A-H) style rules, in source order *)
  body : stmt list;
}

type program = { punits : program_unit list }

(** {2 Statement-id supply} *)

(** [fresh_sid ()] returns a globally fresh statement id.  The parser
    and all transformations draw from the same supply, so ids never
    collide within a session. *)
val fresh_sid : unit -> stmt_id

(** [reset_sids ()] restarts the supply at 0 — for tests that want
    deterministic ids. *)
val reset_sids : unit -> unit

(** [ensure_sids_above n] raises the supply so no id at or below [n]
    is ever issued again (atomic maximum; safe from any domain). *)
val ensure_sids_above : int -> unit

(** [renumber_program p] reassigns statement ids canonically —
    preorder [1..n] over the whole program — and raises the global
    supply past [n] so subsequent edits cannot collide.  Two parses of
    the same source renumber to structurally identical programs, even
    across processes: the server and batch drivers renumber at session
    open so fingerprint-keyed caches dedup identical units across
    sessions. *)
val renumber_program : program -> program

(** [mk ?label ?loc node] builds a statement with a fresh id. *)
val mk : ?label:int -> ?loc:Loc.t -> stmt_node -> stmt

(** {2 Traversals} *)

(** [fold_stmts f acc stmts] folds [f] over every statement in
    [stmts], recursing into IF branches and DO bodies, in source
    order. *)
val fold_stmts : ('a -> stmt -> 'a) -> 'a -> stmt list -> 'a

val iter_stmts : (stmt -> unit) -> stmt list -> unit

(** [entry_unit p] — the unit [p] runs from: its main program, else
    its first unit.  Raises [Invalid_argument "empty program"] when
    [p] has no unit. *)
val entry_unit : program -> program_unit

(** [check_labels u] — [Error "file:line: GOTO 99: no statement
    labelled 99 in unit P"] for the first GOTO in [u] whose label no
    statement of [u] carries, else [Ok ()]. *)
val check_labels : program_unit -> (unit, string) result

(** {!check_labels} over every unit: the first unit's error, in program
    order, else [Ok ()]. *)
val check_program_labels : program -> (unit, string) result

(** [map_stmts f stmts] rebuilds the statement tree bottom-up, applying
    [f] to each statement after its children have been rewritten. *)
val map_stmts : (stmt -> stmt) -> stmt list -> stmt list

(** [find_stmt sid stmts] locates the statement with id [sid]. *)
val find_stmt : stmt_id -> stmt list -> stmt option

(** [fold_expr f acc e] folds [f] over every node of [e], parents
    before children. *)
val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a

(** Expressions appearing in a statement node itself (not in nested
    statements): the rhs and lhs of assignments, conditions, loop
    bounds, call arguments, print items. *)
val stmt_exprs : stmt_node -> expr list

(** Variables read by an expression (includes index variables and
    names used as [Index] bases). *)
val expr_vars : expr -> string list

(** Structural equality on expressions (ignores nothing — locations are
    not stored in expressions). *)
val expr_equal : expr -> expr -> bool

(** [subst_var name replacement e] substitutes [replacement] for every
    [Var name] occurrence in [e]. *)
val subst_var : string -> expr -> expr -> expr

(** Renames an identifier everywhere it appears in an expression, both
    as a scalar and as an [Index] base. *)
val rename_in_expr : old_name:string -> new_name:string -> expr -> expr

(** {2 Convenience constructors} *)

val int_ : int -> expr
val var : string -> expr
val add : expr -> expr -> expr
val sub : expr -> expr -> expr
val mul : expr -> expr -> expr

(** Simplifies constant arithmetic: folds [Bin] over literal ints,
    drops [+0], [*1], [*0] etc.  Used by transformations to keep
    generated bounds readable. *)
val simplify : expr -> expr
