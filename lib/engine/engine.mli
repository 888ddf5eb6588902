(** The incremental, demand-driven analysis engine.

    The session hands the engine a program and asks it for analysis
    results ({!analysis}); the engine decides what actually needs
    recomputing.  Three cache layers, each guarded by a content
    fingerprint (MD5 of the marshalled data — the AST is pure data):

    - {e interprocedural summaries}, keyed by the whole-program
      fingerprint, so undo/redo — which restore a previous program
      value — hit without any invalidation protocol; only the 8 most
      recently used are kept, so an undo further back rebuilds one;
      a miss builds on the last summary the engine returned: each
      pass re-solves only the units the edit reaches and shares that
      summary's facts for the rest ({!Interproc.Summary.analyze}
      [~base], spans and counters on the engine's sink;
      [interproc.units_solved] counts the units solved over all five
      passes, [engine.summary_units_recomputed] the units a bottom-up
      pass solved);
    - {e per-unit scalar environments and dependence graphs}, keyed by
      unit name and guarded by a fingerprint of the unit's statements,
      the analysis configuration, the user's assertions, and the
      unit's {e view} of the interprocedural summary (per-CALL
      effects, section pseudo-references, formal constants, alias
      pairs) — a summary rebuild that left this view intact does not
      invalidate the unit.  {!env} fills an entry's environment only;
      {!analysis} adds the graph when first asked for it;
    - {e dependence-test buckets} inside {!Dependence.Ddg}, so that
      when a unit {e is} recomputed, only the loop nests whose
      statements or reaching scalar environment changed get their
      pair tests re-run.

    All mutation funnels through {!set_program} and
    {!set_assertions}; nothing recomputes eagerly, stale entries are
    detected by fingerprint mismatch at the next query.  Created with
    [~caching:false] the engine recomputes every environment and graph
    on every query, and builds the summary from nothing once per
    program it is given — the from-scratch baseline the bench harness
    and the tests compare against. *)

open Fortran_front
open Dependence

type t

(** Cumulative counters and per-pass monotonic-clock timings since
    creation (or the last {!reset_stats}) — a thin view over the
    engine's telemetry counters. *)
type stats = {
  env_hits : int;        (** unit environments served from cache *)
  env_misses : int;      (** unit environments computed *)
  invalidations : int;   (** misses caused by a stale cached entry *)
  summary_hits : int;
  summary_builds : int;
  ddg_bucket_hits : int;
  ddg_bucket_misses : int;
  tests_run : int;       (** dependence pair tests actually executed *)
  summary_s : float;
  env_s : float;
  ddg_s : float;
}

(** Cross-session sharing hooks — how a server-level shared cache
    (lib/server) plugs in {e behind} the local tables.  After a local
    miss the engine consults [sh_find_*]; whatever it then computes it
    publishes through [sh_add_*].  Keys are the exact content
    fingerprints guarding the local tables (whole-program fingerprint
    for summaries, the full per-unit analysis key for unit results),
    so two sessions over identical units dedup their dependence work
    and a hit can never be stale.  A unit is published once it has
    both its environment and its graph.  [sh_ddg_cache], when present,
    replaces the engine's private dependence-test bucket memo so even
    {e partially} overlapping units share pair-test results. *)
type sharing = {
  sh_find_summary : string -> Interproc.Summary.t option;
  sh_add_summary : string -> Interproc.Summary.t -> unit;
  sh_find_unit : string -> (Depenv.t * Ddg.t) option;
  sh_add_unit : string -> Depenv.t * Ddg.t -> unit;
  sh_ddg_cache : Ddg.cache option;
}

(** [create ?telemetry program] — [telemetry] is the sink all engine
    accounting (and, when it is recording, the [engine.analysis] /
    [engine.summary] / [engine.env] / [engine.ddg] spans) is emitted
    to.  The default is a fresh private live sink, so every engine
    counts independently; passing {!Telemetry.null} disables
    accounting entirely (stats read as zero).  [sharing] hooks the
    engine into a cross-session cache; shared hits count as cache
    hits in {!stats}.  [runner] is handed to every [Ddg.compute] call
    so dependence-test buckets fan out across a domain pool
    ({!Ddg.runner}); analysis results are identical with or without
    it. *)
val create :
  ?caching:bool ->
  ?config:Depenv.config ->
  ?interproc:bool ->
  ?sharing:sharing ->
  ?runner:Ddg.runner ->
  ?telemetry:Telemetry.sink ->
  Ast.program ->
  t

val caching : t -> bool

(** The sink given to (or created by) {!create}. *)
val telemetry : t -> Telemetry.sink
val config : t -> Depenv.config
val use_interproc : t -> bool
val program : t -> Ast.program
val assertions : t -> Depenv.assertions

(** The single post-edit hook: every program mutation (edit,
    transformation, undo, redo) funnels through here. *)
val set_program : t -> Ast.program -> unit

val set_assertions : t -> Depenv.assertions -> unit

(** The current interprocedural summary ([None] when interprocedural
    analysis is off), built or served from cache on demand, and kept
    until the next {!set_program}. *)
val summary : t -> Interproc.Summary.t option

(** [analysis t ~unit_name] — scalar environment and dependence graph
    of the named unit under the current program and assertions;
    [None] if no such unit.  Structurally identical to a from-scratch
    analysis, whatever mix of caches served it. *)
val analysis : t -> unit_name:string -> (Depenv.t * Ddg.t) option

(** [env t ~unit_name] — {!analysis}'s environment, from the same
    cache entry, without building the graph. *)
val env : t -> unit_name:string -> Depenv.t option

(** [candidate t u] — environment and graph of [u], a rewrite that
    would replace the unit of the same name: {!analysis}'s summary
    view, config, assertions, bucket cache and runner, in an
    [engine.candidate] span, never cached as the unit's analysis. *)
val candidate : t -> Ast.program_unit -> Depenv.t * Ddg.t

val stats : t -> stats
val reset_stats : t -> unit

(** Human-readable statistics block (the [engine] editor command and
    [ped --engine-stats]). *)
val report : t -> string
