(** The cross-session analysis cache.

    One process-wide store shared by every session the analysis
    server (or batch driver) multiplexes: interprocedural summaries
    and per-unit analysis results keyed by the engine's content
    fingerprints, plus one shared dependence-test bucket memo so even
    sessions over {e partially} overlapping units share pair-test
    results.  Sessions plug in through {!sharing}, which produces the
    hook record {!Engine.create} accepts — the engine stays ignorant
    of the cache policy, the cache stays ignorant of the analysis.

    Keyed entries live under an LRU byte budget: each entry is sized
    at insertion ([Obj.reachable_words] — an overestimate when
    entries share structure, which is the safe direction), and once
    the total exceeds the budget the least-recently-used entries are
    evicted.  All table operations are mutex-guarded, so sessions on
    different domains may share one cache.

    A cache can be persisted across processes ({!save}/{!load}).
    Only the dependence-test bucket memo is written — it is pure
    data, where summaries and scalar environments carry closures —
    and the file is guarded by a format fingerprint (layout version +
    compiler version), so a stale or foreign file is rejected rather
    than misread, and by the payload's MD5, so a damaged file is
    rejected before it is unmarshalled. *)

open Dependence

type t

(** [create ()] — an empty cache.  [budget_mb] (default 256) bounds
    the keyed-entry store; the bucket memo is not counted against it.
    [telemetry] (default: a fresh private sink) receives the
    [server.cache.hits] / [.misses] / [.insertions] / [.evictions]
    counters. *)
val create : ?telemetry:Telemetry.sink -> ?budget_mb:int -> unit -> t

(** The engine hook record: hand this to {!Engine.create} (or
    [Session.load ~sharing]) to let a session read and publish
    summaries, unit results, and dependence-test buckets through this
    cache. *)
val sharing : t -> Engine.sharing

(** The shared dependence-test bucket memo (what {!save} persists). *)
val ddg_cache : t -> Ddg.cache

(** {2 Raw entries}

    A string-keyed blob namespace in the same LRU store — used by
    tests to pin eviction order with entries of known size, available
    to future layers for derived artifacts. *)

val add_blob : t -> string -> string -> unit
val find_blob : t -> string -> string option

(** {2 Statistics} *)

type stats = {
  entries : int;          (** keyed entries currently resident *)
  bytes : int;            (** their total estimated size *)
  budget_bytes : int;
  hits : int;             (** keyed lookups served *)
  misses : int;
  insertions : int;
  evictions : int;        (** entries dropped by the LRU budget *)
  bucket_entries : int;   (** memoized dependence-test buckets *)
}

val stats : t -> stats

(** Hit rate of keyed lookups in [0,1] ([0.] before any lookup). *)
val hit_rate : stats -> float

val report : t -> string

(** {2 Persistence} *)

(** The file {!save} writes under a cache directory. *)
val cache_file : dir:string -> string

(** [save t ~dir] — write the bucket memo to [dir] (created if
    missing), guarded by the format fingerprint and the payload's
    MD5.  Returns the number of buckets written. *)
val save : t -> dir:string -> (int, string) result

(** [load t ~dir] — merge a previously saved bucket memo into [t].
    Returns the number of buckets added; [Ok 0] when no cache file
    exists.  A file whose format fingerprint does not match this
    binary's, or whose payload does not match its MD5, is rejected
    with [Error] and left unread. *)
val load : t -> dir:string -> (int, string) result

(** The format fingerprint {!save} stamps and {!load} verifies
    (exposed for the version-mismatch tests). *)
val version_fingerprint : unit -> string
