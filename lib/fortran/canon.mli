(** The identity of a program: a byte encoding of the AST without its
    source locations.

    Two values encode to the same bytes exactly when they are equal
    once every statement's {!Loc.t} is ignored.  Statement ids,
    labels, the PARALLEL bit of a loop, declarations and implicit
    rules are all content.  So a file and its copy at another path
    share one identity, and so do a program and its printed and
    reparsed source once both are renumbered
    ({!Ast.renumber_program}).

    Every cache keyed on program content writes its key through these
    writers: the engine's unit and program fingerprints, the
    dependence-test bucket keys, and the stress factory's
    fingerprint.  Each writer is self-delimiting, so writers compose
    into a larger key without ambiguity. *)

(** {2 Writers} *)

val add_int : Buffer.t -> int -> unit
val add_name : Buffer.t -> string -> unit
val add_bool : Buffer.t -> bool -> unit

(** [add_list f] writes the length, then [f] of each element. *)
val add_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

val add_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val add_expr : Buffer.t -> Ast.expr -> unit

(** {2 Digests} *)

(** A unit's name, kind, declarations, implicit rules and body, each
    statement as its id, label and node, never its location. *)
val unit_digest : Ast.program_unit -> Digest.t

(** The digest of the units' digests, in program order.  [unit_digest]
    (default {!unit_digest}) lets a caller serve unit digests from a
    memo. *)
val program_digest :
  ?unit_digest:(Ast.program_unit -> Digest.t) -> Ast.program -> Digest.t
