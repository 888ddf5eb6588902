(* The oracle subsystem itself: corpus round-trip and replay, the
   mutation check (a deliberately weakened DDG must be caught by the
   brute-force oracle), a bounded in-process fuzz run, and the engine
   invariant (cached analysis serves the same DDG as a from-scratch
   build) fuzzed over generated programs and edits. *)

open Fortran_front
open Util

let main_env p =
  let u = List.find (fun u -> u.Ast.kind = Ast.Main) p.Ast.punits in
  Dependence.Depenv.make (Dependence.Unit_syntax.build u)

let gen_finite rng =
  (* rejection-sample a program whose baseline execution is finite *)
  let rec go n =
    if n = 0 then failwith "no finite program in 20 draws"
    else
      let p = Oracle.Gen.program ~cfg:Oracle.Gen.small rng in
      match Sim.Interp.run ~honor_parallel:false p with
      | exception Sim.Interp.Runtime_error _ -> go (n - 1)
      | o -> if Oracle.Gen.finite_outcome o then p else go (n - 1)
  in
  go 20

let replay_corpus () =
  let files = Oracle.Corpus.files "corpus" in
  check_bool "corpus is not empty" true (files <> []);
  List.iter
    (fun f ->
      match Oracle.Corpus.load f with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok entry -> (
        match Oracle.Corpus.replay entry with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s replays red: %s" f e))
    files

let corpus_round_trip () =
  let rng = Random.State.make [| 3 |] in
  let p = gen_finite rng in
  let dir = Filename.temp_file "pedcorpus" "" in
  Sys.remove dir;
  let path =
    Oracle.Corpus.save ~dir ~oracle:"dependence" ~seed:"3#0"
      ~steps:[ ("reverse", "loop=0") ]
      p
  in
  (match Oracle.Corpus.load path with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok e ->
    check_string "oracle survives" "dependence" e.Oracle.Corpus.e_oracle;
    check_string "seed survives" "3#0" e.Oracle.Corpus.e_seed;
    check_bool "steps survive" true
      (e.Oracle.Corpus.e_steps = [ ("reverse", "loop=0") ]);
    (* printing normalizes some spellings ((-4):44 vs -4:44), so
       compare both sides after one print/parse round *)
    check_string "program survives"
      (Pretty.program_to_string
         (Parser.parse_program ~file:"rt" (Pretty.program_to_string p)))
      (Pretty.program_to_string e.Oracle.Corpus.e_program));
  Sys.remove path;
  Sys.rmdir dir

(* the acceptance-criteria mutation check: drop the array flow deps
   from a DDG that really carries one and the brute-force oracle must
   report a miss; the intact DDG must be clean *)
let weakened_ddg_caught () =
  let src =
    "      PROGRAM MUT\n\
    \      REAL A(40)\n\
    \      DO I = 1, 40\n\
    \        A(I) = FLOAT(I)\n\
    \      ENDDO\n\
    \      DO I = 2, 20\n\
    \        A(I) = A(I - 1) * 0.5\n\
    \      ENDDO\n\
    \      PRINT *, A(20)\n\
    \      END\n"
  in
  let p = parse src in
  let env = main_env p in
  let ddg = Dependence.Ddg.compute env in
  let intact = Oracle.Depcheck.check ddg p in
  check_bool "intact DDG has no misses" true
    (intact.Oracle.Depcheck.misses = []);
  check_bool "the carried flow dep is concretely realized" true
    (intact.Oracle.Depcheck.realized > 0);
  let weakened =
    {
      ddg with
      Dependence.Ddg.deps =
        List.filter
          (fun (d : Dependence.Ddg.dep) ->
            d.Dependence.Ddg.kind <> Dependence.Ddg.Flow
            || d.Dependence.Ddg.is_scalar)
          ddg.Dependence.Ddg.deps;
    }
  in
  let r = Oracle.Depcheck.check weakened p in
  check_bool "weakened DDG is caught" true (r.Oracle.Depcheck.misses <> [])

let fuzz_smoke () =
  let cfg =
    {
      Oracle.Driver.default with
      Oracle.Driver.n = 8;
      seed = 11;
      gen_cfg = Oracle.Gen.small;
    }
  in
  let s = Oracle.Driver.run cfg in
  if not (Oracle.Driver.ok s) then
    Alcotest.failf "in-process fuzz went red:\n%s" (Oracle.Driver.summary s);
  check_bool "programs were generated" true (s.Oracle.Driver.programs > 0);
  check_bool "dependence classes were checked" true
    (s.Oracle.Driver.dep_classes > 0);
  check_bool "semantic instances were compared" true
    (s.Oracle.Driver.sem_instances > 0)

(* satellite: the incremental engine must serve, after any edit, a DDG
   structurally equal to a from-scratch [Ddg.compute] *)
let engine_matches_scratch () =
  let rng = Random.State.make [| 29 |] in
  for _round = 1 to 4 do
    let p = gen_finite rng in
    let eng = Engine.create ~caching:true p in
    let check_version what q =
      let u = List.find (fun u -> u.Ast.kind = Ast.Main) q.Ast.punits in
      match Engine.analysis eng ~unit_name:u.Ast.uname with
      | None -> Alcotest.failf "engine lost the main unit (%s)" what
      | Some (_, served) ->
        let scratch =
          Dependence.Ddg.compute (Dependence.Depenv.make (Dependence.Unit_syntax.build u))
        in
        if not (Dependence.Ddg.equal served scratch) then
          Alcotest.failf "engine DDG diverged from scratch (%s) on:\n%s" what
            (Pretty.program_to_string q);
        (* provenance must survive the bucket cache byte-identically:
           pin it explicitly, not just via the structural equality *)
        let provs g =
          List.map (fun d -> d.Dependence.Ddg.prov) g.Dependence.Ddg.deps
        in
        if provs served <> provs scratch then
          Alcotest.failf "cached provenance diverged from scratch (%s) on:\n%s"
            what (Pretty.program_to_string q);
        if served.Dependence.Ddg.nodeps <> scratch.Dependence.Ddg.nodeps then
          Alcotest.failf
            "cached no-dependence table diverged from scratch (%s) on:\n%s"
            what (Pretty.program_to_string q)
    in
    check_version "initial" p;
    (* edit burst: successive shrink steps are structural edits of the
       same program, a fresh draw is an unrelated rewrite *)
    let edits =
      (List.of_seq (Seq.take 3 (Oracle.Gen.shrink p))) @ [ gen_finite rng ]
    in
    List.iter
      (fun q ->
        Engine.set_program eng q;
        check_version "after edit" q)
      edits
  done

let suite =
  [
    case "minimized counterexample corpus replays green" replay_corpus;
    case "corpus entries round-trip through save/load" corpus_round_trip;
    case "a weakened DDG is caught by the brute-force oracle"
      weakened_ddg_caught;
    case "bounded in-process fuzz run is green" fuzz_smoke;
    case "cached engine DDG equals from-scratch compute under edits"
      engine_matches_scratch;
  ]
