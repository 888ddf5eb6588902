(** The evaluator: the one interpreter of the Fortran subset, with
    every execution mode built on it.

    When a program loads, each unit is compiled once into OCaml
    closures: every variable becomes an index into the unit's frame (an
    array of {!Store.slot}s), every [Index] is settled as an array
    element, an intrinsic or a function call, every callee is resolved,
    every block's GOTO labels are tabled, and every statement's
    simulated cost is summed in advance.  Running a unit runs those
    closures; no name is looked up while the program executes.  A
    statement that cannot execute (an array used as a scalar, a
    subroutine called as a function, an unknown function) fails only
    if it runs, with a {!Runtime_error} naming the problem.

    Sequential semantics follow Fortran 77 (by-reference arguments,
    COMMON storage shared by name and allocated up front, column-major
    adjustable arrays, truncating integer division, DO trip counts
    computed on entry).  Storage is {!Store}'s typed buffers; a write
    converts to the buffer's type.

    Only the outermost PARALLEL DO spreads; inner parallel loops run
    sequentially on their processor, as on the machines Ped targeted.
    The outermost one runs in one of four ways ({!parallel}):
    sequentially; simulated; validated; or through an injected runner
    (the multicore runtime's real domains).  Instrumentation — the
    simulated clock, the access trace, dynamic op counts and the
    validator's shadow stamps — lives in the evaluator's context, each
    behind a cheap test.

    {!run} is the simulator.  PARALLEL DO loops execute their
    iterations one at a time (so the simulation is deterministic) but
    the {e simulated clock} charges them as the machine would run
    them: iterations are block-scheduled onto the machine's
    processors, each processor's time is the sum of its iterations'
    measured costs, and the loop costs fork/join + max over
    processors.

    [par_order] permutes the execution order of parallel-loop
    iterations.  A correctly parallelized program produces the same
    result under any order; the test suite uses [Reverse] and
    [Shuffled] to catch unsafe parallelization (the editor's
    power-steering warnings are about exactly this). *)

open Fortran_front

exception Runtime_error of string

type order = Seq | Reverse | Shuffled of int  (** seed *)

(** One concrete array-element access, as reported to the [trace]
    callback of {!run}: the accessing statement, the array and the
    element's flat offset within its storage, read or write, a global
    statement-instance number (monotone in execution order; two
    accesses of the same instance belong to one execution of one
    statement), and the active DO loops with their 0-based normalized
    iteration numbers, outermost first.  Scalar accesses are not
    reported — the dependence oracle that consumes this trace checks
    the array dependence tests, whose domain is exactly these
    references. *)
type access = {
  a_sid : Ast.stmt_id;
  a_var : string;
  a_off : int;
  a_write : bool;
  a_instance : int;
  a_iters : (Ast.stmt_id * int) list;
}

type outcome = {
  output : string list;        (** PRINT lines, in order *)
  cycles : float;              (** simulated parallel time *)
  stmts_executed : int;
  final_store : (string * float list) list;
      (** main-program and COMMON variables after execution, flattened
          to floats, sorted by name *)
  loop_cycles : (Ast.stmt_id * float) list;
      (** simulated time spent in each DO statement (nested loops are
          included in their parents, as in the static estimates) *)
}

(** [run program] — execute from the main program unit.
    @param machine the cost model (default {!Perf.Machine.default})
    @param honor_parallel charge PARALLEL DO loops as parallel
           (default true; false gives the sequential baseline)
    @param par_order iteration order for parallel loops
    @param max_steps statement budget, guards runaways
    @param trace called once per array-element access, in execution
           order (see {!access})
    @raise Runtime_error on missing main, bad subscripts, recursion,
           budget exhaustion, or COMMON arrays without constant bounds *)
val run :
  ?machine:Perf.Machine.t ->
  ?honor_parallel:bool ->
  ?par_order:order ->
  ?max_steps:int ->
  ?trace:(access -> unit) ->
  Ast.program ->
  outcome

(** {2 Execution modes}

    What [Runtime.Exec] builds on: the modes other than the plain
    simulator, and the few operations an injected runner needs. *)

(** A cross-iteration conflict the validator observed. *)
type conflict_kind = Flow | Anti | Output

type unit_info

(** The storage of one activation of a unit: one slot per variable. *)
type frame

(** A unit's compiled statements. *)
type block

type signal = Snormal | Sgoto of int | Sreturn | Sstop

(** An execution context: one per domain. *)
type ctx

(** One execution of a PARALLEL DO, as handed to a runner.  The DO
    variable already holds its initial value. *)
type par_loop = {
  ctx : ctx;
  ui : unit_info;
  frame : frame;
  stmt : Ast.stmt;
  header : Ast.do_header;
  body : block;  (** the compiled loop body *)
  trip : int;
  value_at : int -> Value.value;  (** the DO variable's k-th value *)
  iv_cell : Store.cell;  (** the DO variable's storage *)
}

type parallel =
  | Sequential  (** as a plain DO *)
  | Simulated of order
      (** one iteration at a time in this order, charged to
          block-scheduled processor buckets when the clock runs *)
  | Validated of validator
      (** one iteration at a time in order, every access to storage
          the loop does not privatize stamped in shadow memory *)
  | Runner of (par_loop -> signal)
      (** handed to the runner, for loops of at least one iteration;
          the runner leaves the DO variable at its final value *)

(** How the validated mode learns about the loop being validated. *)
and validator = {
  excluded : par_loop -> string list;
      (** variables the loop privatizes (its DO variable, private,
          induction and reduction scalars, private arrays): their
          accesses are not stamped *)
  conflict :
    Ast.stmt_id -> string -> conflict_kind -> int -> int -> int -> unit;
      (** [conflict loop var kind offset earlier later] — called on
          every conflicting access, with the earlier and later
          iteration numbers *)
}

(** A loaded program: units indexed, COMMON allocated, the main
    unit's frame built. *)
type loaded

(** [load ~parallel ~max_steps prog]
    @param machine runs the simulated clock against this machine
    @param trace see {!run}
    @raise Runtime_error on a missing main unit or COMMON arrays
           without constant bounds *)
val load :
  ?machine:Perf.Machine.t ->
  ?trace:(access -> unit) ->
  parallel:parallel ->
  max_steps:int ->
  Ast.program ->
  loaded

(** Execute the main unit. *)
val run_main : loaded -> unit

val output : loaded -> string list
val stmts_executed : loaded -> int
val final_store : loaded -> (string * float list) list
val op_counts : loaded -> Perf.Machine.op_counts

(** {2 Frames}

    How a runner gives each worker its own copy of a loop's frame,
    with the variables the loop privatizes pointing at fresh storage.
    Names are resolved once per loop. *)

(** A variable of a loop's unit: its slot in the unit's frames. *)
type var

(** [var l name] — [name]'s slot in [l]'s unit, if the unit gives it
    storage (every scalar and array of the unit has a slot in every
    frame of it). *)
val var : par_loop -> string -> var option

val slot : frame -> var -> Store.slot
val copy_frame : frame -> frame

(** [bind frame x s] — make [x] name the storage [s] in [frame]. *)
val bind : frame -> var -> Store.slot -> unit

(** [fork c] — a context for running iterations on another domain:
    same storage, program and budget; its own output, op counts and
    instrumentation, already inside a parallel loop. *)
val fork : ctx -> ctx

(** [iteration c l frame iv k] — set [iv] to the DO variable's
    [k]-th value and run one iteration of [l]'s body in [frame]. *)
val iteration : ctx -> par_loop -> frame -> Store.cell -> int -> signal

(** The PRINT lines [c] produced since the last call, in order. *)
val take_output : ctx -> string list

(** Append PRINT lines to [c]'s output. *)
val emit : ctx -> string list -> unit

(** [add_ops c w] — add [w]'s op counts into [c]'s. *)
val add_ops : ctx -> ctx -> unit

(** [outputs_match ?tol a b] — same PRINT lines up to relative
    tolerance on numeric fields (reductions reassociate under
    permuted parallel orders). *)
val outputs_match : ?tol:float -> string list -> string list -> bool

(** Like {!outputs_match} for final stores. *)
val stores_match :
  ?tol:float ->
  (string * float list) list ->
  (string * float list) list ->
  bool
