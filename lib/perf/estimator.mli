(** Static performance estimation.

    Predicts the relative execution time of loops and whole units so
    the editor can rank loops ("work on this one next") and preview
    the payoff of parallelization — the navigation aid the Ped
    evaluation identified as the most-wanted missing feature.

    Trip counts come from constant/assertion-aware evaluation;
    unknown trips fall back to {!default_trip} and the estimate is
    flagged approximate. *)

open Fortran_front
open Dependence

(** Assumed iterations for loops whose trip count is unknown. *)
val default_trip : int

type estimate = {
  cycles : float;     (** predicted sequential cycles *)
  exact_trips : bool; (** false when a default trip count was assumed *)
}

(** Cost of evaluating one expression — shared with the simulator so
    static estimates and simulated cycles use the same basis. *)
val expr_cost : Machine.t -> Fortran_front.Symbol.table -> Ast.expr -> float

(** Sequential cost of one statement (including nested loops).
    [callee_cost] prices CALLs by their callee's estimated body cost
    (interprocedural estimation); without it a call costs linkage
    only. *)
val stmt_cost :
  ?machine:Machine.t -> ?callee_cost:(string -> float option) -> Depenv.t ->
  Ast.stmt -> estimate

(** Sequential cost of a whole unit body. *)
val unit_cost :
  ?machine:Machine.t -> ?callee_cost:(string -> float option) -> Depenv.t ->
  estimate

(** Parallel cost of a statement given that PARALLEL DO loops spread
    their iterations over the machine's processors (outermost parallel
    loop only; inner parallel loops run sequentially on their
    processor). *)
val parallel_stmt_cost : ?machine:Machine.t -> Depenv.t -> Ast.stmt -> estimate

val parallel_unit_cost : ?machine:Machine.t -> Depenv.t -> estimate

(** Loops ranked by their share of the unit's predicted time,
    heaviest first: [(loop, cycles, share)]. *)
val rank_loops :
  ?machine:Machine.t -> ?callee_cost:(string -> float option) -> Depenv.t ->
  (Loopnest.loop * float * float) list

(** [callee_costs ~env_of] — the price of a unit by name, on demand:
    the sequential cost of its body (on {!Machine.default}) under the
    environment [env_of] gives, each CALL charged its callee's price,
    each unit priced once per [callee_costs ~env_of] value.  A unit
    already being priced, or unknown to [env_of], costs linkage only. *)
val callee_costs : env_of:(string -> Depenv.t option) -> string -> float option

(** Predicted speedup of the unit as currently annotated (parallel
    loops honoured) on [processors]. *)
val predicted_speedup : ?machine:Machine.t -> Depenv.t -> processors:int -> float

(** Predicted speedup of one statement — typically a PARALLEL DO —
    on [processors]: sequential cost over parallel cost.  1.0 when
    the statement has no parallel loop (costs coincide). *)
val loop_speedup :
  ?machine:Machine.t -> Depenv.t -> Ast.stmt -> processors:int -> float
