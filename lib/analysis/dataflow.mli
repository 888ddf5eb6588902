(** Generic iterative dataflow framework over a {!Cfg}.

    A problem supplies the lattice (join, equality, initial values)
    and a transfer function; the framework iterates to a fixed point
    and returns the IN and OUT value of every node.

    The solver works on the CFG's node numbers ({!Cfg.index}), which
    follow reverse postorder from [Entry], and hands the transfer
    function the number of the node it visits.  It sweeps the nodes in that
    order (reversed for a backward problem), visiting only those whose
    inputs changed since their last visit, until a sweep finds none:
    on the structured loop nests Ped sees, a few sweeps suffice.  Each
    solve adds its visits to the [dataflow.node_visits] counter.

    Termination is the client's obligation: the lattice must have
    finite height along the chains the transfer function produces.
    A safety valve of 10_000 visits per node aborts with [Failure]
    otherwise — better a loud failure than a silent hang in an
    interactive tool. *)

type direction = Forward | Backward

type 'a problem = {
  direction : direction;
  boundary : 'a;  (** value at Entry (forward) or Exit (backward) *)
  init : 'a;      (** initial value for all other nodes *)
  join : 'a -> 'a -> 'a;
  equal : 'a -> 'a -> bool;
  transfer : int -> 'a -> 'a;  (** by node number *)
}

type 'a result

(** [solve cfg problem] iterates to a fixed point. *)
val solve : Cfg.t -> 'a problem -> 'a result

(** Value flowing into a node (before its transfer function).
    @raise Invalid_argument for a node not in the solved graph. *)
val input : 'a result -> Cfg.node -> 'a

(** {!input} by node number. *)
val input_at : 'a result -> int -> 'a

(** Value flowing out of a node (after its transfer function). *)
val output : 'a result -> Cfg.node -> 'a
