(** The multi-session analysis server.

    One server multiplexes many editor sessions over a single
    process: every session is plugged into one shared {!Cache}
    through the engine's sharing hooks, so work any session does —
    interprocedural summaries, unit analyses, dependence-test
    buckets — is visible to every other session keyed by content
    fingerprint.  Programs are canonically renumbered at open
    ({!Fortran_front.Ast.renumber_program}), which is what makes two
    sessions over identical source produce identical fingerprints in
    the first place.

    Requests are handled on the calling domain, interleaved; each
    one runs inside [Telemetry.with_lane sink ("session " ^ id)]
    under a [server.request] span, so a recorded trace ([ped serve
    --trace]) shows one lane per session even though they share a
    domain. *)

open Ped

type t

(** [create ()] — a server with no sessions.  [cache] (default: a
    fresh 256 MiB one) is the shared store; [history_limit] is
    handed to each session's undo stack; [telemetry] is the one sink
    every session's engine and every request span emits to.
    [runner] fans each analysis's dependence-test buckets across a
    domain pool ([ped serve --analysis-domains N]); every session
    shares it. *)
val create :
  ?telemetry:Telemetry.sink ->
  ?cache:Cache.t ->
  ?runner:Dependence.Ddg.runner ->
  ?history_limit:int ->
  unit ->
  t

val cache : t -> Cache.t
val telemetry : t -> Telemetry.sink

(** Open sessions, as [(id, focus unit)], oldest first. *)
val sessions : t -> (string * string) list

val find_session : t -> string -> Session.t option

(** [open_session t ~id ~file ~source ~unit_name] — parse, renumber,
    and load a session sharing the server's cache.  [Error] if [id]
    is already open, the source does not parse, or the unit does not
    exist. *)
val open_session :
  t ->
  id:string ->
  file:string ->
  source:string ->
  unit_name:string option ->
  (Session.t, string) result

(** Handle one request; the response is [(echoed session id, payload
    lines)].  [Quit] is handled as a successful no-op — stopping the
    loop is the caller's job.  Whatever a request raises becomes its
    [Error], so one bad request leaves every other session answering. *)
val handle : t -> Protocol.request -> (string * string list, string) result

(** Read framed requests from [ic] and write framed responses to
    [oc] until [quit] or end of input (see {!Protocol}).  Blank
    lines are ignored. *)
val serve : t -> in_channel -> out_channel -> unit
