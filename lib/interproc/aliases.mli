(** Formal-parameter alias analysis (Banning-style, flow insensitive).

    Two formals of a unit may alias when some call chain passes them
    overlapping storage — the classic case is [CALL S(A, A)].  A unit
    analyzed without this information can wrongly prove independence
    between references to what is actually one array.

    Aliases carry a kind: {e aligned} when both names denote the same
    storage from the same first element (whole-array actuals), so
    subscripts compare element for element; {e may} when the overlap
    has an unknown offset (an array-element actual like [A(5)]), where
    nothing about the subscripts can be compared. *)

type t

type kind = Aligned | May

(** [compute ?base cg] — top-down over {!Propagate.run}: a unit is
    re-solved when it or a caller changed since [base]. *)
val compute : ?base:t -> Callgraph.t -> t

(** Units this build solved, sorted. *)
val solved : t -> string list

(** Alias pairs among a unit's formals/COMMON names. *)
val pairs_of : t -> string -> (string * string * kind) list

(** [query t unit a b] — the alias relation between two names. *)
val query : t -> string -> string -> string -> [ `Aligned | `May | `No ]
