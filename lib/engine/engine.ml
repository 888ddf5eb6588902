open Fortran_front
open Dependence

type stats = {
  env_hits : int;
  env_misses : int;
  invalidations : int;
  summary_hits : int;
  summary_builds : int;
  ddg_bucket_hits : int;
  ddg_bucket_misses : int;
  tests_run : int;
  summary_s : float;
  env_s : float;
  ddg_s : float;
}

let zero_stats =
  {
    env_hits = 0;
    env_misses = 0;
    invalidations = 0;
    summary_hits = 0;
    summary_builds = 0;
    ddg_bucket_hits = 0;
    ddg_bucket_misses = 0;
    tests_run = 0;
    summary_s = 0.;
    env_s = 0.;
    ddg_s = 0.;
  }

type entry = { e_fp : Fingerprint.t; e_env : Depenv.t; e_ddg : Ddg.t }

(* Cross-session sharing hooks.  The engine stays ignorant of the
   cache behind them (lib/server owns the LRU/persistence policy);
   it consults the hooks after a local miss and publishes what it
   computed.  Keys are the same content fingerprints that guard the
   local tables, so a hit is correct by construction. *)
type sharing = {
  sh_find_summary : Fingerprint.t -> Interproc.Summary.t option;
  sh_add_summary : Fingerprint.t -> Interproc.Summary.t -> unit;
  sh_find_unit : Fingerprint.t -> (Depenv.t * Ddg.t) option;
  sh_add_unit : Fingerprint.t -> Depenv.t * Ddg.t -> unit;
  sh_ddg_cache : Ddg.cache option;
      (** when present, the engine's dependence-test bucket memo —
          shared partial results across sessions analyzing similar
          (not identical) units *)
}

(* All accounting lives in telemetry counters on [sink]; [stats] is a
   view of those counters relative to the [base] watermark taken by
   [reset_stats].  The dependence-test and bucket tallies are bumped
   by [Ddg.compute ~telemetry:sink] itself — the engine only reads
   them back. *)
type t = {
  caching : bool;
  config : Depenv.config;
  use_interproc : bool;
  sharing : sharing option;
  runner : Ddg.runner option;
  sink : Telemetry.sink;
  mutable program : Ast.program;
  mutable asserts : Depenv.assertions;
  (* per-unit analysis results, keyed by unit name, guarded by fingerprint *)
  units : (string, entry) Hashtbl.t;
  (* interprocedural summaries, keyed by whole-program fingerprint,
     most recently used first, at most [summary_cap] *)
  mutable summaries : (Fingerprint.t * Interproc.Summary.t) list;
  (* the summary most recently returned: the reuse base of the next build *)
  mutable last_summary : Interproc.Summary.t option;
  (* per-unit content digests, by name, valid for the unit value held *)
  digests : (string, Ast.program_unit * Fingerprint.t) Hashtbl.t;
  ddg_cache : Ddg.cache;
  c_env_hits : Telemetry.counter;
  c_env_misses : Telemetry.counter;
  c_invalidations : Telemetry.counter;
  c_summary_hits : Telemetry.counter;
  c_summary_builds : Telemetry.counter;
  c_summary_units : Telemetry.counter;
  c_tests : Telemetry.counter;
  c_bucket_hits : Telemetry.counter;
  c_bucket_misses : Telemetry.counter;
  c_summary_ns : Telemetry.counter;
  c_env_ns : Telemetry.counter;
  c_ddg_ns : Telemetry.counter;
  mutable base : stats;
}

let create ?(caching = true) ?(config = Depenv.full_config)
    ?(interproc = true) ?sharing ?runner ?telemetry (program : Ast.program) : t =
  (* a private live sink by default: counters work out of the box and
     two engines never share accounting *)
  let sink =
    match telemetry with Some s -> s | None -> Telemetry.make ()
  in
  let c = Telemetry.counter sink in
  {
    caching;
    config;
    use_interproc = interproc;
    sharing;
    runner;
    sink;
    program;
    asserts = Depenv.no_assertions;
    units = Hashtbl.create 8;
    summaries = [];
    last_summary = None;
    digests = Hashtbl.create 64;
    ddg_cache =
      (match sharing with
      | Some { sh_ddg_cache = Some cache; _ } -> cache
      | _ -> Ddg.make_cache ());
    c_env_hits = c "engine.env_hits";
    c_env_misses = c "engine.env_misses";
    c_invalidations = c "engine.invalidations";
    c_summary_hits = c "engine.summary_hits";
    c_summary_builds = c "engine.summary_builds";
    c_summary_units = c "engine.summary_units_recomputed";
    c_tests = c "ddg.tests_executed";
    c_bucket_hits = c "ddg.bucket_hits";
    c_bucket_misses = c "ddg.bucket_misses";
    c_summary_ns = c "engine.summary_ns";
    c_env_ns = c "engine.env_ns";
    c_ddg_ns = c "engine.ddg_ns";
    base = zero_stats;
  }

let caching t = t.caching
let config t = t.config
let use_interproc t = t.use_interproc
let program t = t.program
let assertions t = t.asserts
let telemetry t = t.sink

(* The single post-edit hook: every program mutation funnels through
   here.  Nothing is recomputed eagerly — stale cache entries are
   detected by fingerprint mismatch at the next query. *)
let set_program t program = t.program <- program

let set_assertions t asserts = t.asserts <- asserts

(* A unit's content digest, computed once per unit value: an edit
   replaces only the units it touches, so the rest keep their digest. *)
let unit_digest t (u : Ast.program_unit) =
  match Hashtbl.find_opt t.digests u.Ast.uname with
  | Some (u', d) when u' == u -> d
  | _ ->
    let d = Fingerprint.unit_content u in
    Hashtbl.replace t.digests u.Ast.uname (u, d);
    d

(* Summaries kept per engine.  Undo walks back through recent
   programs, and a miss re-solves only the units that differ from the
   last summary, so a short list caps memory without costing much. *)
let summary_cap = 8

(* [key]'s summary moves to (or enters) the front; the least recently
   used falls off past the cap. *)
let remember t key s =
  let rest = List.filter (fun (k, _) -> not (String.equal k key)) t.summaries in
  t.summaries <- List.filteri (fun i _ -> i < summary_cap) ((key, s) :: rest)

(* Caching mode builds on the last summary, re-solving only the units
   an edit reaches; baseline mode builds from nothing, the reference
   the incremental result must equal. *)
let summary t : Interproc.Summary.t option =
  if not t.use_interproc then None
  else begin
    let build () =
      Telemetry.incr t.c_summary_builds;
      let base = if t.caching then t.last_summary else None in
      let s =
        Telemetry.timed t.sink ~span_name:"engine.summary" t.c_summary_ns
          (fun () -> Interproc.Summary.analyze ?base t.program)
      in
      Telemetry.add t.c_summary_units
        (List.length (Interproc.Summary.recomputed s));
      s
    in
    if not t.caching then Some (build ())
    else begin
      let key = Fingerprint.program ~content:(unit_digest t) t.program in
      let s =
        match List.assoc_opt key t.summaries with
        | Some s ->
          Telemetry.incr t.c_summary_hits;
          s
        | None -> (
          match
            Option.bind t.sharing (fun sh -> sh.sh_find_summary key)
          with
          | Some s ->
            (* served by another session's work *)
            Telemetry.incr t.c_summary_hits;
            s
          | None ->
            let s = build () in
            Option.iter (fun sh -> sh.sh_add_summary key s) t.sharing;
            s)
      in
      remember t key s;
      t.last_summary <- Some s;
      Some s
    end
  end

let find_unit t name =
  List.find_opt
    (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
    t.program.Ast.punits

let compute_unit t summary (u : Ast.program_unit) =
  let env =
    Telemetry.timed t.sink ~span_name:"engine.env" t.c_env_ns (fun () ->
        match summary with
        | Some s ->
          Interproc.Summary.env_for ~config:t.config ~asserts:t.asserts s u
        | None -> Depenv.make ~config:t.config ~asserts:t.asserts u)
  in
  let ddg =
    Telemetry.timed t.sink ~span_name:"engine.ddg" t.c_ddg_ns (fun () ->
        if t.caching then
          Ddg.compute ~cache:t.ddg_cache ?runner:t.runner ~telemetry:t.sink
            env
        else
          (* baseline mode: no memo table, but the sink still counts
             every pair test executed *)
          Ddg.compute ?runner:t.runner ~telemetry:t.sink env)
  in
  (env, ddg)

(* Demand-driven analysis of one unit: served from cache when the
   unit's fingerprint (content + config + assertions + interprocedural
   facet) is unchanged, recomputed — and re-cached — otherwise. *)
let analysis t ~unit_name : (Depenv.t * Ddg.t) option =
  Telemetry.span t.sink "engine.analysis" ~args:[ ("unit", unit_name) ]
  @@ fun () ->
  match find_unit t unit_name with
  | None -> None
  | Some u ->
    let summary = summary t in
    if not t.caching then Some (compute_unit t summary u)
    else begin
      let facet =
        Option.map (fun s -> Fingerprint.interproc_facet s u) summary
      in
      let fp =
        Fingerprint.analysis_key ~config:t.config ~asserts:t.asserts ~facet
          ~content:(unit_digest t u)
      in
      match Hashtbl.find_opt t.units unit_name with
      | Some e when String.equal e.e_fp fp ->
        Telemetry.incr t.c_env_hits;
        Some (e.e_env, e.e_ddg)
      | prior -> (
        match Option.bind t.sharing (fun sh -> sh.sh_find_unit fp) with
        | Some (env, ddg) ->
          (* another session already analyzed this exact unit under
             this exact config/assertion/interproc view *)
          Telemetry.incr t.c_env_hits;
          Hashtbl.replace t.units unit_name
            { e_fp = fp; e_env = env; e_ddg = ddg };
          Some (env, ddg)
        | None ->
          if prior <> None then Telemetry.incr t.c_invalidations;
          Telemetry.incr t.c_env_misses;
          let env, ddg = compute_unit t summary u in
          Hashtbl.replace t.units unit_name
            { e_fp = fp; e_env = env; e_ddg = ddg };
          Option.iter (fun sh -> sh.sh_add_unit fp (env, ddg)) t.sharing;
          Some (env, ddg))
    end

(* A rewrite of a unit, analysed the way the unit itself would be,
   under the current summary, config and assertions and through the
   same bucket cache, but never stored as the unit's analysis. *)
let candidate t (u : Ast.program_unit) =
  Telemetry.span t.sink "engine.candidate" ~args:[ ("unit", u.Ast.uname) ]
  @@ fun () -> compute_unit t (summary t) u

let seconds c = float_of_int (Telemetry.value c) /. 1e9

(* Absolute counter readings (since engine creation). *)
let read t : stats =
  {
    env_hits = Telemetry.value t.c_env_hits;
    env_misses = Telemetry.value t.c_env_misses;
    invalidations = Telemetry.value t.c_invalidations;
    summary_hits = Telemetry.value t.c_summary_hits;
    summary_builds = Telemetry.value t.c_summary_builds;
    ddg_bucket_hits = Telemetry.value t.c_bucket_hits;
    ddg_bucket_misses = Telemetry.value t.c_bucket_misses;
    tests_run = Telemetry.value t.c_tests;
    summary_s = seconds t.c_summary_ns;
    env_s = seconds t.c_env_ns;
    ddg_s = seconds t.c_ddg_ns;
  }

let stats t : stats =
  let s = read t and b = t.base in
  {
    env_hits = s.env_hits - b.env_hits;
    env_misses = s.env_misses - b.env_misses;
    invalidations = s.invalidations - b.invalidations;
    summary_hits = s.summary_hits - b.summary_hits;
    summary_builds = s.summary_builds - b.summary_builds;
    ddg_bucket_hits = s.ddg_bucket_hits - b.ddg_bucket_hits;
    ddg_bucket_misses = s.ddg_bucket_misses - b.ddg_bucket_misses;
    tests_run = s.tests_run - b.tests_run;
    summary_s = s.summary_s -. b.summary_s;
    env_s = s.env_s -. b.env_s;
    ddg_s = s.ddg_s -. b.ddg_s;
  }

let reset_stats t = t.base <- read t

let report t =
  let s = stats t in
  String.concat "\n"
    [
      Printf.sprintf "engine: %s"
        (if t.caching then "incremental (caching)" else "full reanalysis");
      Printf.sprintf "  unit analyses : %d cached, %d computed (%d invalidated)"
        s.env_hits s.env_misses s.invalidations;
      Printf.sprintf "  summaries     : %d cached, %d built" s.summary_hits
        s.summary_builds;
      Printf.sprintf "  ddg buckets   : %d cached, %d computed"
        s.ddg_bucket_hits s.ddg_bucket_misses;
      Printf.sprintf "  pair tests run: %d" s.tests_run;
      Printf.sprintf
        "  time          : summary %.4fs, scalar env %.4fs, ddg %.4fs"
        s.summary_s s.env_s s.ddg_s;
    ]
