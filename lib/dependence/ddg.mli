(** The dependence graph — what Ped's dependence pane displays.

    For every loop nest, every pair of references to the same array
    (at least one a write) is tested with the {!Dtest} hierarchy;
    scalar dependences come from variable classification and def-use
    chains; control dependences from the CFG.  Each edge records its
    type, the variable, direction/distance vectors over the common
    loops, the carrying loop, and whether the dependence was {e
    proven} by an exact test or merely {e assumed} (pending) — the
    editor's marking states build directly on this.

    Statistics of which test disposed of each pair are kept for the
    evaluation tables. *)

open Fortran_front

type kind = Flow | Anti | Output | Control

val kind_to_string : kind -> string

type dep = {
  dep_id : int;
  kind : kind;
  var : string;
  src : Ast.stmt_id;
  dst : Ast.stmt_id;
  src_ref : Ast.expr option;  (** the source array reference, if any *)
  dst_ref : Ast.expr option;
  level : int option;
      (** carrying position within the common nest (1 = outermost);
          [None] = loop independent *)
  carrier : Ast.stmt_id option;  (** the carrying DO statement *)
  dirs : Dtest.direction array list;  (** over the common loops *)
  dist : int option array;
  exact : bool;  (** proven by an exact test (editor mark: proven) *)
  test : string;
  is_scalar : bool;
  prov : Explain.Provenance.t;
      (** why this edge exists: the deciding tier, its outcome, the
          tested reference pair, and the assumptions consulted *)
}

val pp_dep : Format.formatter -> dep -> unit

(** A disproved reference pair — the entry of the no-dependence table
    that answers "why is there NO dependence here?". *)
type nodep = {
  nd_var : string;
  nd_src : Ast.stmt_id;
  nd_dst : Ast.stmt_id;
  nd_prov : Explain.Provenance.t;
}

(** Dependence-test statistics: how many reference pairs each test
    disproved, how many dependences were proven vs assumed. *)
type stats = {
  pairs_tested : int;
  disproved : (string * int) list;  (** per test name *)
  proven : int;
  pending : int;
}

type t = { deps : dep list; nodeps : nodep list; stats : stats }

(** A memo table for the expensive array-dependence pair tests.

    The unit body is partitioned into top-level statement groups (a
    whole DO nest is one group); every ordered pair of groups is
    tested as one {e bucket}, keyed by a digest of exactly what its
    pair tests read: each group's statement structure, DO headers,
    auxiliary inductions, may-defs and references; per referencing
    statement, each subscript's forward-substituted form
    ({!Subscript.dim_form}) and, for every scalar of the subscripts,
    of those forms and of the enclosing loop headers, its constant
    there and its reaching definitions (by position in the unit);
    whether the two groups are one; and the global assertion, config
    and alias state.  The key holds no statement id and no source
    location: buckets are stored with bucket-local statement indices
    and replayed under the ids of the current program.  Passing the
    same cache to successive {!compute} calls replays unchanged
    buckets instead of re-running their dependence tests.  A cache
    may be shared across program versions and units; stale entries
    are simply never hit again.

    The cache is domain-safe: the bucket table is mutex-guarded and
    the run counters are atomics, so one cache may serve concurrent
    bucket tests — several domains inside one {!compute}, or several
    sessions of a batch server. *)
type cache

val make_cache : unit -> cache

(** [(tests_executed, bucket_hits, bucket_misses)] accumulated over
    every [compute ~cache] call: pair tests actually run (cache
    misses only), buckets served from the table, buckets computed. *)
val cache_counters : cache -> int * int * int

(** Number of memoized buckets in the table. *)
val cache_entries : cache -> int

(** Marshal the memo table (pure data — no closures) for the
    persistent cross-process cache.  Counters are not included. *)
val export_cache : cache -> string

(** [import_cache s ~into] — add the buckets serialized by
    {!export_cache} to [into], keeping existing entries on key
    collision; returns the number of buckets added.  Raises
    [Failure] on malformed input (the caller guards the payload with
    its own format fingerprint). *)
val import_cache : string -> into:cache -> int

(** {2 Staged construction}

    {!compute} is a pipeline of three explicit, pure stages, exposed
    so callers (and tests) can drive — or fan out — the expensive
    middle stage themselves:

    {ul
    {- {!plan} enumerates the unit's reference-pair buckets as
       {!task}s in canonical group order (cheap);}
    {- {!test} runs one bucket.  It reads only the immutable plan, so
       distinct tasks may run concurrently on distinct domains;}
    {- {!assemble} merges one {!outcome} per planned task — plus the
       sequential scalar and control-dependence passes — into a graph
       in canonical task order, so the result is independent of the
       order in which buckets finished.}} *)

(** One unit of parallel work: every eligible reference pair between
    two top-level statement groups.  [t_key] is the bucket's
    memo-table digest, present iff the plan was built [~keyed]. *)
type task = { t_g1 : int; t_g2 : int; t_key : string option }

(** The immutable context shared by all stages — the replacement for
    the mutable state the old single-pass [compute] threaded through
    its inner closures.  Stages only ever read it. *)
type plan

(** Result of one bucket of pair tests; pure data. *)
type bucket

type outcome = { o_bucket : bucket; o_cached : bool }

(** [plan ?keyed env] — stage 1.  With [~keyed:true] every task also
    carries its cache digest (the extra cost is one signature pass
    over the unit, in a [ddg.key] span). *)
val plan : ?telemetry:Telemetry.sink -> ?keyed:bool -> Depenv.t -> plan

(** The planned tasks, in canonical (g1, g2) lexicographic order. *)
val tasks : plan -> task array

(** [test p task] — stage 2: run one bucket.  Pure and domain-safe:
    reads only [p].  Emits a [ddg.bucket] span on the executing
    domain (one trace lane per domain under a parallel run). *)
val test : plan -> task -> bucket

(** [assemble p outcomes] — stage 3.  [outcomes] must align with
    {!tasks} (same length and order); raises [Invalid_argument]
    otherwise.  [o_cached] marks buckets replayed from a cache — they
    are excluded from the executed-test telemetry. *)
val assemble : plan -> outcome array -> t

(** How {!compute} fans bucket tests out: an injected task runner
    mapping an array of thunks to their results, in order.  The
    record keeps this library free of any dependency on
    [Runtime.Pool]; [Runtime.Pool.analysis_runner] builds one over a
    domain pool. *)
type runner = { run_tasks : 'a. (unit -> 'a) array -> 'a array }

(** [compute ?cache ?runner env] — dependence graph of the whole
    unit, honouring [env]'s config and assertions.  With [cache],
    array dependence testing is served bucket-wise from the memo
    table; with [runner], the buckets the cache could not serve are
    fanned out through it.  The result is structurally identical to a
    sequential cacheless build (dep ids are renumbered in canonical
    emission order) — the invariant the determinism tests pin.

    [telemetry] (default: the process {!Telemetry.default} sink)
    receives a [ddg.compute] span holding a [ddg.plan] span (with a
    [ddg.key] span inside when [cache] is given) and a [ddg.assemble]
    span, one [ddg.bucket] span per computed bucket (on the domain
    that ran it), and counters:
    [ddg.pairs_tested] (all pairs, including cache-replayed),
    [ddg.tests_executed] (pair tests actually run),
    [ddg.bucket_hits]/[ddg.bucket_misses], [ddg.bucket_relocated]
    (hits replayed under other statement ids than they were tested
    under), [ddg.deps_proven]/
    [ddg.deps_pending], [ddg.defuse_queries] (the [Defuse.uses]/
    [may_defs] queries of the scalar passes), [dtest.disproved.<test>],
    and the per-tier provenance tallies [dtest.assumed.<tier>] /
    [dtest.proven.<tier>]. *)
val compute :
  ?cache:cache -> ?telemetry:Telemetry.sink -> ?runner:runner -> Depenv.t -> t

(** Structural identity of two graphs (deps and statistics).  Cache-
    assisted, engine-served and from-scratch builds of the same unit
    must all be [equal] — the invariant the engine fuzz tests pin. *)
val equal : t -> t -> bool

(** Hex MD5 of the graph's bytes: [equal] graphs, however built, have
    the same digest.  The batch driver compares sessions by it. *)
val digest : t -> string

(** The dependence with the given id, if any. *)
val find_dep : t -> int -> dep option

(** [why_no t ~src ~dst] — the disproved reference pairs between the
    two statements, in either orientation: the provenance of the
    absence of a dependence. *)
val why_no : t -> src:Ast.stmt_id -> dst:Ast.stmt_id -> nodep list

(** Edges grouped by the provenance tier that decided them, sorted by
    tier name — the precision dashboard's raw material.  [assumed] and
    [proven] partition {!t.deps}; [disproved] tallies {!t.nodeps} (and
    agrees with {!stats.disproved} on the array pairs). *)
val assumed_by_tier : t -> (string * int) list

val proven_by_tier : t -> (string * int) list
val disproved_by_tier : t -> (string * int) list

(** Dependences carried by the given loop. *)
val carried_by : t -> Ast.stmt_id -> dep list

(** Dependences whose endpoints both lie in the given loop's body
    (the dependence-pane contents when that loop is selected). *)
val deps_in_loop : Depenv.t -> t -> Ast.stmt_id -> dep list

(** The carried flow/anti/output dependences, short of privatizable
    arrays: the edges that block parallelization.  Whether the loop
    may run in parallel is [Transform.Parallelize]'s verdict, which
    also weighs its scalars. *)
val blocking : Depenv.t -> t -> Ast.stmt_id -> dep list

(** [carried_blocking env loop_sid carried] — those of [carried], edges
    the loop carries, that block its parallelization: {!blocking} for
    a caller that already holds the loop's carried edges. *)
val carried_blocking : Depenv.t -> Ast.stmt_id -> dep list -> dep list

(** Graphviz rendering of the dependences inside a loop (or, with no
    loop, the whole unit): statements are nodes, dependences are
    labeled edges — the graphical dependence display Ped users asked
    for. *)
val dot : ?loop:Ast.stmt_id -> Depenv.t -> t -> string
