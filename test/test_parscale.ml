(* Determinism of the parallel analyzer.

   The staged pipeline (Ddg.plan / test / assemble) promises that
   fanning bucket tests across a domain pool changes nothing: the
   graph, the provenance on every edge, the no-dependence table and
   the statistics must be byte-identical to a sequential build.  The
   suite pins that over every built-in workload at 2/4/8 domains,
   over the staged API driven by hand, over a cache shared by
   concurrent computes on raw domains (the satellite domain-safety
   claim), and over generated programs via the oracle fuzz hook. *)

open Fortran_front
open Dependence
open Util

(* Every unit of a workload, with the same interprocedural
   environments the engine serves. *)
let envs_of_workload (w : Workloads.t) : (string * Depenv.t) list =
  let p = Workloads.program w in
  let summary = Interproc.Summary.analyze p in
  List.map
    (fun (u : Ast.program_unit) ->
      (u.Ast.uname, Interproc.Summary.env_for summary u))
    p.Ast.punits

let all_workload_envs =
  lazy
    (List.concat_map
       (fun (w : Workloads.t) ->
         List.map
           (fun (uname, env) -> (w.Workloads.name, uname, env))
           (envs_of_workload w))
       Workloads.all)

let check_identical ~what seq par =
  Alcotest.(check bool) (what ^ ": Ddg.equal") true (Ddg.equal seq par);
  check_string (what ^ ": marshalled bytes") (Ddg.digest seq) (Ddg.digest par)

let workloads_deterministic () =
  let envs = Lazy.force all_workload_envs in
  let seq = List.map (fun (w, u, env) -> (w, u, Ddg.compute env)) envs in
  List.iter
    (fun domains ->
      Runtime.Pool.with_pool domains (fun pool ->
          let runner = Runtime.Pool.analysis_runner pool in
          List.iter2
            (fun (_, _, env) (w, u, seq_g) ->
              let par = Ddg.compute ~runner env in
              check_identical
                ~what:(Printf.sprintf "%s#%s @%dd" w u domains)
                seq_g par)
            envs seq))
    [ 2; 4; 8 ]

let staged_api_matches_compute () =
  let env =
    envs_of_workload (Option.get (Workloads.by_name "spec77x")) |> List.hd
    |> snd
  in
  let p = Ddg.plan env in
  let tasks = Ddg.tasks p in
  Alcotest.(check bool) "has tasks" true (Array.length tasks > 0);
  (* canonical lexicographic task order, upper triangle only *)
  Array.iteri
    (fun i (t : Ddg.task) ->
      check_bool "upper triangle" true (t.Ddg.t_g1 <= t.Ddg.t_g2);
      check_bool "unkeyed plan carries no digests" true (t.Ddg.t_key = None);
      if i > 0 then
        let prev = tasks.(i - 1) in
        check_bool "canonical order" true
          ((prev.Ddg.t_g1, prev.Ddg.t_g2) < (t.Ddg.t_g1, t.Ddg.t_g2)))
    tasks;
  let outcomes =
    Array.map
      (fun t -> { Ddg.o_bucket = Ddg.test p t; o_cached = false })
      tasks
  in
  check_identical ~what:"hand-staged" (Ddg.compute env) (Ddg.assemble p outcomes);
  (* keyed plans carry a digest per task *)
  let kp = Ddg.plan ~keyed:true env in
  Array.iter
    (fun (t : Ddg.task) ->
      check_bool "keyed plan carries digests" true (t.Ddg.t_key <> None))
    (Ddg.tasks kp);
  (* misaligned outcomes are rejected, not silently merged *)
  match Ddg.assemble p (Array.sub outcomes 0 (Array.length outcomes - 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "assemble accepted a short outcome array"

let cache_parity_under_runner () =
  let env =
    envs_of_workload (Option.get (Workloads.by_name "gauss")) |> List.hd |> snd
  in
  let seq = Ddg.compute env in
  Runtime.Pool.with_pool 4 (fun pool ->
      let runner = Runtime.Pool.analysis_runner pool in
      let cache = Ddg.make_cache () in
      (* cold: every bucket computed on the pool, then stored *)
      let cold = Ddg.compute ~cache ~runner env in
      check_identical ~what:"cold parallel" seq cold;
      let tests0, hits0, misses0 = Ddg.cache_counters cache in
      check_bool "cold run misses" true (misses0 > 0 && hits0 = 0);
      check_int "tests executed = pairs tested" seq.Ddg.stats.Ddg.pairs_tested
        tests0;
      check_int "one entry per miss" misses0 (Ddg.cache_entries cache);
      (* warm: all buckets replayed, no new tests, runner idle *)
      let warm = Ddg.compute ~cache ~runner env in
      check_identical ~what:"warm parallel" seq warm;
      let tests1, hits1, misses1 = Ddg.cache_counters cache in
      check_int "no new tests" tests0 tests1;
      check_int "all hits" (hits0 + misses0) hits1;
      check_int "no new misses" misses0 misses1;
      (* a sequential compute shares the same warmed cache *)
      check_identical ~what:"warm sequential" seq (Ddg.compute ~cache env))

(* The satellite claim: one cache, concurrently probed and filled by
   computes running on distinct raw domains, loses no increments and
   corrupts no buckets. *)
let concurrent_computes_share_one_cache () =
  let env =
    envs_of_workload (Option.get (Workloads.by_name "shallow")) |> List.hd
    |> snd
  in
  let seq = Ddg.compute env in
  let cache = Ddg.make_cache () in
  let n_domains = 4 in
  let graphs =
    Array.init n_domains (fun _ ->
        Domain.spawn (fun () -> Ddg.compute ~cache env))
    |> Array.map Domain.join
  in
  Array.iteri
    (fun i g -> check_identical ~what:(Printf.sprintf "domain %d" i) seq g)
    graphs;
  let tests, hits, misses = Ddg.cache_counters cache in
  let buckets = Ddg.cache_entries cache in
  check_bool "some buckets memoized" true (buckets > 0);
  (* every compute probed every bucket exactly once *)
  check_int "probes = domains * buckets" (n_domains * buckets) (hits + misses);
  check_bool "every bucket missed at least once" true (misses >= buckets);
  (* duplicated work is bounded by the worst case of every domain
     computing every bucket before any store landed *)
  check_bool "tests within duplication bound" true
    (tests >= seq.Ddg.stats.Ddg.pairs_tested
    && tests <= n_domains * seq.Ddg.stats.Ddg.pairs_tested)

let sessions_identical_with_runner () =
  List.iter
    (fun name ->
      let w = Option.get (Workloads.by_name name) in
      (* one parse, canonical ids: the graphs must match edge for edge *)
      let program = Ast.renumber_program (Workloads.program w) in
      let plain =
        Ped.Session.load program ~unit_name:(Workloads.main_unit w)
      in
      Runtime.Pool.with_pool 2 (fun pool ->
          let runner = Runtime.Pool.analysis_runner pool in
          let par =
            Ped.Session.load ~runner program
              ~unit_name:(Workloads.main_unit w)
          in
          check_identical ~what:("session " ^ name)
            (Ped.Session.ddg plain) (Ped.Session.ddg par)))
    [ "matmul"; "callnest"; "spec77x" ]

(* Oracle fuzz hook: generated programs through the same harness the
   engine-vs-scratch fuzz uses, sequential vs fanned-out. *)
let fuzz_parallel_matches_sequential () =
  let rng = Random.State.make [| 0x9a5c; 7 |] in
  Runtime.Pool.with_pool 4 (fun pool ->
      let runner = Runtime.Pool.analysis_runner pool in
      for round = 1 to 6 do
        let p = Test_oracle.gen_finite rng in
        let env = Test_oracle.main_env p in
        check_identical ~what:(Printf.sprintf "fuzz round %d" round)
          (Ddg.compute env)
          (Ddg.compute ~runner env)
      done)

(* The parscale bench's 24-nest program: editing the first nest's
   constant leaves every other statement's signature alone under
   canonical renumbering, so buckets that do not involve it replay. *)
let wide_env seed_const =
  let src = Workloads.wide_nests ~nests:24 ~seed_const in
  let p = Ast.renumber_program (Parser.parse_program ~file:"parsc.f" src) in
  Depenv.make (Unit_syntax.build (List.hd p.Ast.punits))

let one_constant_edit_replays_buckets () =
  let cache = Ddg.make_cache () in
  ignore (Ddg.compute ~cache (wide_env 1.0));
  let _, hits0, _ = Ddg.cache_counters cache in
  let edited = Ddg.compute ~cache (wide_env 9.0) in
  let _, hits1, _ = Ddg.cache_counters cache in
  check_bool "at least one bucket replayed" true (hits1 - hits0 >= 1);
  check_identical ~what:"edited, cache-assisted" (Ddg.compute (wide_env 9.0))
    edited

let suite =
  [
    case "all workloads: 2/4/8-domain analysis is byte-identical"
      workloads_deterministic;
    case "staged plan/test/assemble equals compute" staged_api_matches_compute;
    case "a shared cache serves sequential and parallel computes alike"
      cache_parity_under_runner;
    case "concurrent computes on raw domains share one cache safely"
      concurrent_computes_share_one_cache;
    case "sessions with an analysis runner serve identical graphs"
      sessions_identical_with_runner;
    case "fuzz: generated programs analyze identically in parallel"
      fuzz_parallel_matches_sequential;
    case "a one-constant edit replays buckets from the cache"
      one_constant_edit_replays_buckets;
  ]
