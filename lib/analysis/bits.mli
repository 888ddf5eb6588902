(** Sets of small non-negative integers, one bit per element.

    The numbered-variable solvers ({!Reaching}, {!Liveness}, the
    interprocedural Kill analysis) and the {!Varclass} walk keep their
    sets in these.  All sets combined in
    one operation must come from [make] with the same size.  The
    functional operations return a fresh set and never mutate their
    arguments, so a solver may share a set between nodes; the [_into]
    operations update their first argument in place. *)

type t

(** [make n] — the empty set over elements [0 .. n-1]. *)
val make : int -> t

val of_list : int -> int list -> t
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val equal : t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t

(** [transfer ~gen ~kill x] — [gen ∪ (x \ kill)]. *)
val transfer : gen:t -> kill:t -> t -> t

(** [union_into dst src] — [dst := dst ∪ src]. *)
val union_into : t -> t -> unit

(** [inter_into dst src] — [dst := dst ∩ src]. *)
val inter_into : t -> t -> unit

(** [union_diff_into dst src mask] — [dst := dst ∪ (src \ mask)]. *)
val union_diff_into : t -> t -> t -> unit
