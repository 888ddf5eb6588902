(** The performance debugger's entry points.

    [diagnose] answers "why is this parallelized program slow?": it
    runs the program twice — a sequential baseline with every PARALLEL
    flag stripped, then the real parallel run instrumented through a
    {!Telemetry.retained} sink — profiles the captured spans per loop
    ({!Profile}), pairs them with the static side (estimator
    predictions, plan shapes), and evaluates the {!Detect} rules.
    [ped --diagnose] and the editor's [why slow] command both land
    here. *)

open Fortran_front

type t = {
  findings : Detect.finding list;  (** ranked, most costly first *)
  profile : Profile.t;
  seq_wall : float;  (** sequential baseline, seconds *)
  par_wall : float;  (** parallel run, seconds *)
  measured : float option;
      (** seq/par speedup; [None] when the host has fewer cores than
          the run asked for and a measurement would only mislead *)
  predicted : float;  (** estimator's whole-unit promise *)
  domains : int;
  schedule : Runtime.Pool.schedule;
}

(** Estimator promise and plan shape for every PARALLEL DO of the
    program, keyed by statement id.  Both read the unit environments
    of [summary], the program's interprocedural summary. *)
val static_of :
  ?machine:Perf.Machine.t -> summary:Interproc.Summary.t -> processors:int ->
  Ast.program -> (int * Detect.loop_static) list

(** The estimator's whole-unit predicted speedup of the entry unit
    ({!Fortran_front.Ast.entry_unit}), on [summary]. *)
val predicted_of :
  ?machine:Perf.Machine.t -> summary:Interproc.Summary.t -> processors:int ->
  Ast.program -> float

(** The analysis core: profile captured [spans] and run the
    detectors.  For callers that executed the program themselves —
    the compiled backend path — with [fallback_run_ns] standing in
    for the missing [exec.run] span. *)
val analyze :
  ?config:Detect.config ->
  ?machine:Perf.Machine.t ->
  domains:int ->
  schedule:Runtime.Pool.schedule ->
  seq_wall:float ->
  par_wall:float ->
  ?fallback_run_ns:float ->
  Ast.program ->
  Telemetry.span_record list ->
  t

(** Run (baseline + instrumented parallel) and diagnose. *)
val diagnose :
  ?config:Detect.config ->
  ?machine:Perf.Machine.t ->
  ?domains:int ->
  ?schedule:Runtime.Pool.schedule ->
  ?max_steps:int ->
  Ast.program ->
  t

(** The distinct diagnosis kinds present, sorted — what the
    determinism tests compare across runs. *)
val kinds : t -> Detect.kind list

(** Full report: run summary then ranked findings.  [focus] restricts
    the findings to one loop (the [why slow sN] form). *)
val render : ?focus:int -> t -> string
