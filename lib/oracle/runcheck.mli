(** The runtime oracle.

    Parallelizes every loop the editor approves, in every unit
    ({!Ped.Session.parallelize_safe_loops}, the path [ped --execute]
    takes), then cross-checks three executions of the resulting
    program against the sequential original:

    - {b validation}: {!Runtime.Exec.run} with shadow-memory conflict
      detection — any reported conflict on an analysis-approved DOALL
      (outside plan-privatized storage) is an unsoundness signal;
    - {b real parallel execution}: multicore runs across a matrix of
      (domains, schedule) configurations, comparing PRINT output and
      observed arrays;
    - {b permuted simulation}: the simulator's [par_order] set to
      [Reverse] and [Shuffled], which a correct DOALL must not
      notice. *)

open Fortran_front

type failure = {
  r_stage : string;  (** "validate" / "exec d=2 chunk" / "order reverse" … *)
  r_what : string;
}

val failure_to_string : failure -> string

type result = {
  parallel_loops : int;  (** loops the editor approved and marked *)
  failures : failure list;
}

(** @param configs (domains, schedule) matrix
             (default [[(2, Chunk); (3, Self)]])
    @param max_steps execution budget per run *)
val check :
  ?configs:(int * Runtime.Pool.schedule) list ->
  ?max_steps:int ->
  Ast.program ->
  result

(** Mark every loop the editor approves PARALLEL DO, through
    {!Ped.Session.parallelize_safe_loops}; returns the marked-loop
    count.  Exposed for the codegen oracle ({!Cgcheck}), which compiles
    exactly this program. *)
val parallelize_approved : Ast.program -> Ast.program * int

(** Same PRINT output (within the run tolerance) and the generator's
    observed arrays matching the sequential baseline. *)
val observably_equal :
  Sim.Interp.outcome ->
  output:string list ->
  final_store:(string * float list) list ->
  bool
