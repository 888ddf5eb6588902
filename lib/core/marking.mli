(** Dependence marking — proven / pending / accepted / rejected.

    Ped marks each dependence: {e proven} when an exact test
    established it, {e pending} otherwise.  The user sharpens analysis
    by marking pending dependences {e accepted} (treat as real) or
    {e rejected} (ignore it — the user knows the subscripts never
    overlap).  Rejected dependences no longer block parallelization.

    Marks must survive reanalysis (edits, transformations), so they
    key on a stable signature of the dependence (kind, variable,
    endpoint statement ids, level) rather than on the regenerated
    dependence-graph ids. *)

open Dependence

type status = Proven | Pending | Accepted | Rejected

val status_to_string : status -> string

type t

val empty : t
val is_empty : t -> bool

(** The analysis's own status, ignoring user marks: Proven when an
    exact test established the dependence, else Pending. *)
val unmarked : Ddg.dep -> status

(** Current status: user mark if any, else {!unmarked}.  Each call is
    one lookup, counted by {!lookups}. *)
val status_of : t -> Ddg.dep -> status

(** Calls of {!status_of} so far, process-wide.  {!View} looks each
    edge up at most once per graph version; tests check it here. *)
val lookups : unit -> int

(** [mark t dep status] — record a user mark ([Accepted]/[Rejected]);
    marking [Proven]/[Pending] clears the user's mark. *)
val mark : t -> Ddg.dep -> status -> t

(** Dependence ids (in the current graph) whose status is [Rejected]
    — the set parallelization checks ignore. *)
val rejected_ids : t -> Ddg.t -> int list

(** Number of user marks recorded. *)
val count : t -> int
