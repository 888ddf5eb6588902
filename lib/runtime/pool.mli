(** A reusable pool of OCaml 5 domains.

    Hand-rolled on [Domain]/[Mutex]/[Condition] (no external task
    library): [create n] spawns [n] worker domains that sleep on a
    condition variable; {!parallel_for} hands them a parallel-for job
    and blocks the caller until every worker has drained its share;
    {!map} layers task submission with per-task results over the same
    machinery (the surface the parallel analyzer uses).

    Two scheduling policies mirror the machine models of the
    ParaScope literature:

    - [Chunk]: each worker takes one contiguous block of
      ⌈trip/n⌉ iterations (static block scheduling — lowest
      synchronization cost, best when iterations are uniform);
    - [Self]: workers repeatedly claim the next iteration from a
      shared atomic counter (self-scheduling — one fetch-and-add per
      iteration, load-balances triangular or irregular work).

    The pool is reusable: jobs run one at a time, workers park
    between jobs.  A job submitted while the pool already runs one —
    from inside one of its tasks, or from another pool's workers —
    runs inline: every iteration on the calling domain, as worker 0,
    in increasing index order, with no [pool.run] span and no
    [pool.jobs] count.  An exception raised by any iteration cancels
    the remaining iterations (best effort), and the first such
    exception is re-raised in the caller after all workers have
    parked. *)

type t

type schedule = Chunk | Self

val schedule_to_string : schedule -> string

(** Every name a schedule answers to, aliases ([block], [dynamic])
    included. *)
val schedule_names : (string * schedule) list

(** [create n] — spawn [n] worker domains ([n] is clamped to at
    least 1).  [telemetry] (default: the process {!Telemetry.default}
    sink at creation time) receives per-job [pool.run] spans on the
    caller, per-worker [pool.chunk]/[pool.self] spans on each worker
    domain's own lane, and worker-utilization metrics ([pool.jobs],
    [pool.iterations], [pool.busy_ns], and the
    [pool.iters_per_worker] histogram). *)
val create : ?telemetry:Telemetry.sink -> int -> t

(** Number of workers. *)
val size : t -> int

(** [parallel_for t ~schedule ~trip ~body] — execute [body ~worker k]
    for every [k] in [0 .. trip-1].  [worker] identifies the
    executing lane (0-based) within this job; a given worker index
    never runs concurrently with itself in one job, so per-job,
    per-worker state needs no locking.  Indices are per job: an inline
    job's worker 0 may run alongside the busy job's worker 0.
    Within one worker, iteration indices are claimed in increasing
    order under both policies.  Blocks until done; re-raises the
    first iteration exception.

    [label] names the loop in telemetry: it is attached as a
    ["label"] arg to the caller's [pool.run] span and to every
    worker's [pool.chunk]/[pool.self] span, so the performance
    debugger can attribute per-worker busy time to source loops. *)
val parallel_for :
  ?label:string -> t -> schedule:schedule -> trip:int ->
  body:(worker:int -> int -> unit) -> unit

(** [map t tasks] — run every thunk on the pool and return their
    results in task order (task [k]'s result at index [k]).  Tasks
    are claimed [Self]-scheduled by default (tasks are irregular by
    nature); pass [~schedule:Chunk] for uniform work.  Blocks until
    done.  If a task raises, the remaining tasks are cancelled (best
    effort) and the first exception is re-raised in the caller.

    This is the task-submission surface the analyzer and [Exec] now
    share.  A [map] called from inside a task, or while the pool is
    busy with another caller's job, runs its tasks inline on the
    caller (see above). *)
val map : t -> ?schedule:schedule -> (unit -> 'a) array -> 'a array

(** A {!Dependence.Ddg.runner} fanning dependence-test buckets out
    over this pool — what [Session.load ?runner] and
    [ped --analysis-domains N] plug into the analyzer. *)
val analysis_runner : t -> Dependence.Ddg.runner

(** Park and join every worker domain.  The pool must not be used
    afterwards. *)
val shutdown : t -> unit

(** [with_pool n f] — create, run [f], always shutdown. *)
val with_pool : ?telemetry:Telemetry.sink -> int -> (t -> 'a) -> 'a
