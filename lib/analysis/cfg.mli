(** Statement-level control-flow graph of one program unit.

    Nodes are statements (identified by {!Fortran_front.Ast.stmt_id})
    plus distinguished [Entry] and [Exit] nodes.  Statement-level
    granularity (rather than basic blocks) keeps every dataflow result
    directly addressable from the editor, and the programs Ped
    handles are small enough that the extra nodes cost nothing.

    Edges follow structured control flow (IF branches, DO loops with
    their zero-trip exits and back edges) and GOTOs to labels. *)

open Fortran_front

type node = Entry | Exit | Stmt of Ast.stmt_id

val node_compare : node -> node -> int
val node_equal : node -> node -> bool
val pp_node : Format.formatter -> node -> unit

module NodeMap : Map.S with type key = node
module NodeSet : Set.S with type elt = node

type t

(** [build u] constructs the CFG of [u]'s body.
    @raise Failure if a GOTO targets an unknown label. *)
val build : Ast.program_unit -> t

val succs : t -> node -> node list
val preds : t -> node -> node list

(** All nodes in reverse postorder from [Entry] (unreachable statements
    appear after the reachable ones, in source order). *)
val nodes : t -> node list

(** The statement behind a node. *)
val stmt_of : t -> node -> Ast.stmt option

(** Number of nodes, including [Entry] and [Exit]. *)
val size : t -> int

(** Nodes are numbered [0 .. size t - 1] in {!nodes} order, so
    [Entry] is 0.  [index] is a node's number, [None] for a node not
    in the graph; the dataflow solver and the dominator computation
    work on these numbers. *)
val index : t -> node -> int option

val node_at : t -> int -> node

(** Numbered successors and predecessors, in {!succs} / {!preds}
    order. *)
val succ_ids : t -> int -> int array

val pred_ids : t -> int -> int array

(** The unit this CFG was built from. *)
val unit_of : t -> Ast.program_unit

(** [dot t] renders the graph in Graphviz format (for debugging and
    the editor's call-graph-style displays). *)
val dot : t -> string
