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

(* A unit's environment, and its graph once something asked for one:
   {!env} fills only the environment, {!analysis} adds the graph. *)
type entry = {
  e_fp : Fingerprint.t;
  e_env : Depenv.t;
  mutable e_ddg : Ddg.t option;
}

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
  (* the summary most recently returned and its program: the answer
     while that program value is held, else the reuse base of a build *)
  mutable last_summary : (Ast.program * Interproc.Summary.t) option;
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
    let d = Canon.unit_digest u in
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

let build_summary t base =
  Telemetry.incr t.c_summary_builds;
  let s =
    Telemetry.timed t.sink ~span_name:"engine.summary" t.c_summary_ns
      (fun () -> Interproc.Summary.analyze ~telemetry:t.sink ?base t.program)
  in
  Telemetry.add t.c_summary_units (List.length (Interproc.Summary.recomputed s));
  s

(* Caching mode: a recent program's summary, another session's, or one
   built on [base], re-solving only the units an edit reaches. *)
let cached_summary t base =
  let key = Canon.program_digest ~unit_digest:(unit_digest t) t.program in
  let s =
    match List.assoc_opt key t.summaries with
    | Some s ->
      Telemetry.incr t.c_summary_hits;
      s
    | None -> (
      match Option.bind t.sharing (fun sh -> sh.sh_find_summary key) with
      | Some s ->
        (* served by another session's work *)
        Telemetry.incr t.c_summary_hits;
        s
      | None ->
        let s = build_summary t base in
        Option.iter (fun sh -> sh.sh_add_summary key s) t.sharing;
        s)
  in
  remember t key s;
  s

(* Either mode answers from the last summary while its program is the
   one held.  Baseline mode builds from nothing, the reference the
   incremental result must equal. *)
let summary t : Interproc.Summary.t option =
  if not t.use_interproc then None
  else
    match t.last_summary with
    | Some (p, s) when p == t.program ->
      Telemetry.incr t.c_summary_hits;
      Some s
    | last ->
      let s =
        if t.caching then cached_summary t (Option.map snd last)
        else build_summary t None
      in
      t.last_summary <- Some (t.program, s);
      Some s

let find_unit t name =
  List.find_opt
    (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
    t.program.Ast.punits

let build_env t summary (u : Ast.program_unit) =
  Telemetry.timed t.sink ~span_name:"engine.env" t.c_env_ns (fun () ->
      match summary with
      | Some s ->
        Interproc.Summary.env_for ~config:t.config ~asserts:t.asserts s u
      | None ->
        Depenv.make ~config:t.config ~asserts:t.asserts (Unit_syntax.build u))

let build_ddg t env =
  Telemetry.timed t.sink ~span_name:"engine.ddg" t.c_ddg_ns (fun () ->
      if t.caching then
        Ddg.compute ~cache:t.ddg_cache ?runner:t.runner ~telemetry:t.sink env
      else
        (* baseline mode: no memo table, but the sink still counts
           every pair test executed *)
        Ddg.compute ?runner:t.runner ~telemetry:t.sink env)

(* The unit of the summary's program named like [u], a unit of
   [t.program].  A summary answers for a program content-equal to
   [t.program] (the same one, or one of equal fingerprint), so that
   unit is [u] up to source locations, and the summary holds its
   syntax record: the facet and the environment read it rather than
   take [u] apart again. *)
let own_unit summary (u : Ast.program_unit) =
  match summary with
  | None -> u
  | Some s ->
    Option.value ~default:u
      (Interproc.Callgraph.unit_named (Interproc.Summary.callgraph s) u.Ast.uname)

(* The unit's entry: kept while its fingerprint (content + config +
   assertions + interprocedural facet) is unchanged, else another
   session's analysis of the same key, else a fresh environment.
   Baseline mode builds a fresh entry every time and keeps none.
   Only units of [t.program] come here, never a candidate rewrite. *)
let entry t (u : Ast.program_unit) =
  let summary = summary t in
  let own = own_unit summary u in
  if not t.caching then
    { e_fp = ""; e_env = build_env t summary own; e_ddg = None }
  else begin
    let facet = Option.map (fun s -> Fingerprint.interproc_facet s own) summary in
    let fp =
      Fingerprint.analysis_key ~config:t.config ~asserts:t.asserts ~facet
        ~content:(unit_digest t u)
    in
    match Hashtbl.find_opt t.units u.Ast.uname with
    | Some e when String.equal e.e_fp fp ->
      Telemetry.incr t.c_env_hits;
      e
    | prior ->
      let e =
        match Option.bind t.sharing (fun sh -> sh.sh_find_unit fp) with
        | Some (env, ddg) ->
          (* another session already analyzed this exact unit under
             this exact config/assertion/interproc view *)
          Telemetry.incr t.c_env_hits;
          { e_fp = fp; e_env = env; e_ddg = Some ddg }
        | None ->
          if prior <> None then Telemetry.incr t.c_invalidations;
          Telemetry.incr t.c_env_misses;
          { e_fp = fp; e_env = build_env t summary own; e_ddg = None }
      in
      Hashtbl.replace t.units u.Ast.uname e;
      e
  end

(* The entry's graph, built on first demand; only then does the unit,
   environment and graph, go to the shared cache. *)
let graph t e =
  match e.e_ddg with
  | Some ddg -> ddg
  | None ->
    let ddg = build_ddg t e.e_env in
    e.e_ddg <- Some ddg;
    if t.caching then
      Option.iter (fun sh -> sh.sh_add_unit e.e_fp (e.e_env, ddg)) t.sharing;
    ddg

let env t ~unit_name =
  Option.map (fun u -> (entry t u).e_env) (find_unit t unit_name)

let analysis t ~unit_name : (Depenv.t * Ddg.t) option =
  Telemetry.span t.sink "engine.analysis" ~args:[ ("unit", unit_name) ]
  @@ fun () ->
  Option.map
    (fun u ->
      let e = entry t u in
      (e.e_env, graph t e))
    (find_unit t unit_name)

(* A rewrite of a unit, analysed the way the unit itself would be,
   under the current summary, config and assertions and through the
   same bucket cache, but never stored as the unit's analysis. *)
let candidate t (u : Ast.program_unit) =
  Telemetry.span t.sink "engine.candidate" ~args:[ ("unit", u.Ast.uname) ]
  @@ fun () ->
  let env = build_env t (summary t) u in
  (env, build_ddg t env)

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
