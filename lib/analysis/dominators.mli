(** Dominators and postdominators, as immediate-dominator trees.

    Cooper, Harvey and Kennedy's iterative algorithm ("A Simple, Fast
    Dominance Algorithm", Rice 2001) computes each node's immediate
    dominator on postorder numbers; {!dominates} walks up the tree.
    Postdominators feed control-dependence construction.

    A node that cannot reach the root — for postdominators, a statement
    on a GOTO cycle that never exits — has every node for dominator.
    Its {!idom} is the greatest other such node in {!Cfg.node_compare}
    order.  An unreachable statement with no predecessor is dominated
    by itself alone. *)

type t

(** Dominators: [n] dominates [m] if every path Entry→m passes n. *)
val dominators : Cfg.t -> t

(** Postdominators: [n] postdominates [m] if every path m→Exit passes n. *)
val postdominators : Cfg.t -> t

val dominates : t -> Cfg.node -> Cfg.node -> bool

(** Immediate dominator (or postdominator), if any. *)
val idom : t -> Cfg.node -> Cfg.node option
