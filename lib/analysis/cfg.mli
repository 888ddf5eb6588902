(** Statement-level control-flow graph of one program unit.

    Nodes are statements (identified by {!Fortran_front.Ast.stmt_id})
    plus distinguished [Entry] and [Exit] nodes.  Statement-level
    granularity (rather than basic blocks) keeps every dataflow result
    directly addressable from the editor, and the programs Ped
    handles are small enough that the extra nodes cost nothing.

    Edges follow structured control flow (IF branches, DO loops with
    their zero-trip exits and back edges) and GOTOs to labels.

    The graph is one numbering: nodes are [0 .. size t - 1] in reverse
    postorder from [Entry] (so [Entry] is 0), each number with its
    successor and predecessor numbers and its statement.  The
    node-valued queries ({!succs}, {!preds}, {!nodes}) are views of
    that numbering. *)

open Fortran_front

type node = Entry | Exit | Stmt of Ast.stmt_id

val node_compare : node -> node -> int
val node_equal : node -> node -> bool
val pp_node : Format.formatter -> node -> unit

type t

(** [build u] constructs the CFG of [u]'s body.
    @raise Failure if a GOTO targets an unknown label. *)
val build : Ast.program_unit -> t

val succs : t -> node -> node list
val preds : t -> node -> node list

(** All nodes in number order: reverse postorder from [Entry], then
    the unreachable statements in source order, then [Exit] if it is
    unreachable. *)
val nodes : t -> node list

(** The statement behind a node. *)
val stmt_of : t -> node -> Ast.stmt option

(** Number of nodes, including [Entry] and [Exit]. *)
val size : t -> int

(** A node's number, [None] for a node not in the graph. *)
val index : t -> node -> int option

val node_at : t -> int -> node

(** The statement numbered [i] ([None] for [Entry] and [Exit]). *)
val stmt_at : t -> int -> Ast.stmt option

(** Numbered successors and predecessors, in {!succs} / {!preds}
    order. *)
val succ_ids : t -> int -> int array

val pred_ids : t -> int -> int array

(** [dot t] renders the graph in Graphviz format (for debugging and
    the editor's call-graph-style displays). *)
val dot : t -> string
