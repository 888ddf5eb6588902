(* The stress-workload factory (lib/oracle Stress).

   Determinism is the load-bearing property: every stress program must
   be reproducible from (seed, profile) alone — byte-identical source
   and a stable fingerprint — regardless of how many statements any
   other code allocated first, because that is what makes a bench
   number or a fuzz failure citable across processes.  On top of that
   the suite pins the factory's integration points: the parser
   round-trips the 100k-line flagship byte-for-byte, an incremental
   session over each smoke-scale profile equals from-scratch analysis,
   the pooled analyzer on 1/2/4/8 domains equals the sequential build
   on each of them, and the fuzz driver's seed resolution (CLI, then
   QCHECK_SEED, then the default) is a pure function. *)

open Fortran_front
open Dependence
open Util

(* Burn a batch of fresh statement ids, so a test can prove the
   factory's output does not depend on the global sid counter. *)
let perturb_sid_counter () =
  ignore (parse "      PROGRAM NOISE\n      T = 1.0\n      T = T + 2.0\n      END\n")

(* ------------------------------------------------------------------ *)
(* determinism                                                         *)
(* ------------------------------------------------------------------ *)

(* every profile at tiny scale (seed 7) and at smoke scale (seed 42) *)
let scaled_profiles =
  List.concat_map
    (fun (p : Oracle.Stress.profile) ->
      let name = p.Oracle.Stress.sp_name in
      [
        (name ^ "@tiny", 7, Oracle.Stress.tiny p);
        (name ^ "@smoke", 42, Oracle.Stress.smoke p);
      ])
    Oracle.Stress.all

(* A program up to source locations: statement ids renumbered
   canonically, every location dropped. *)
let without_locs (p : Ast.program) =
  let p = Ast.renumber_program p in
  let drop (s : Ast.stmt) = { s with Ast.loc = Loc.none } in
  {
    Ast.punits =
      List.map
        (fun (u : Ast.program_unit) -> { u with Ast.body = Ast.map_stmts drop u.Ast.body })
        p.Ast.punits;
  }

(* The printed program reparses and reprints byte-identically, and
   the reparse is the program itself, up to locations and ids. *)
let check_reparses name p =
  let src = Pretty.program_to_string p in
  let back = Parser.parse_program ~file:(name ^ ".f") src in
  check_string (name ^ ": reparse round-trip") src (Pretty.program_to_string back);
  check_bool (name ^ ": reparse is the same program") true
    (without_locs p = without_locs back)

let same_seed_same_program () =
  List.iter
    (fun (name, seed, prof) ->
      let p1 = Oracle.Stress.generate ~seed prof in
      let src1 = Pretty.program_to_string p1 in
      let fp1 = Oracle.Stress.fingerprint p1 in
      perturb_sid_counter ();
      let p2 = Oracle.Stress.generate ~seed prof in
      check_string (name ^ ": source bytes") src1
        (Pretty.program_to_string p2);
      check_string (name ^ ": fingerprint") fp1
        (Oracle.Stress.fingerprint p2);
      check_reparses name p1;
      (* and a different seed is a different program *)
      check_bool (name ^ ": seed matters") false
        (String.equal fp1
           (Oracle.Stress.fingerprint
              (Oracle.Stress.generate ~seed:(seed + 1) prof))))
    scaled_profiles

let fingerprint_survives_reparse () =
  (* the fingerprint renumbers before hashing, so parsing the same
     bytes under different global sid-counter states must produce the
     same fingerprint — the cross-process stability the CI pins with
     two [ped stress] runs.  Locations are not identity: the generated
     program and its reparse from either path fingerprint alike. *)
  let prof = Oracle.Stress.tiny Oracle.Stress.deep in
  let generated = Oracle.Stress.generate ~seed:3 prof in
  let src = Pretty.program_to_string generated in
  let fp_of file =
    Oracle.Stress.fingerprint (Parser.parse_program ~file src)
  in
  let fp1 = fp_of "a.f" in
  perturb_sid_counter ();
  check_string "reparse fingerprint is sid-independent" fp1 (fp_of "a.f");
  check_string "another path, one fingerprint" fp1 (fp_of "b/a.f");
  check_string "the generated program, one fingerprint" fp1
    (Oracle.Stress.fingerprint generated)

(* The same round trip over the workloads, the oracle corpus and a
   fixed batch of generated programs. *)
let programs_reparse () =
  List.iter
    (fun w -> check_reparses w.Workloads.name (Workloads.program w))
    Workloads.all;
  List.iter
    (fun f ->
      match Oracle.Corpus.load f with
      | Ok e -> check_reparses (Filename.basename f) e.Oracle.Corpus.e_program
      | Error e -> Alcotest.failf "%s: %s" f e)
    (Oracle.Corpus.files "corpus");
  for seed = 1 to 40 do
    check_reparses
      (Printf.sprintf "gen-%d" seed)
      (Oracle.Gen.program ~cfg:Oracle.Gen.small (Random.State.make [| seed |]))
  done

let profiles_resolve () =
  List.iter
    (fun n ->
      check_bool (n ^ " resolves") true (Oracle.Stress.by_name n <> None))
    [ "deep"; "wide"; "many-units"; "many_units"; "DEEP" ];
  check_bool "unknown profile rejected" true
    (Oracle.Stress.by_name "nope" = None);
  (* workload-name plumbing *)
  check_bool "stress: prefix recognized" true
    (Workloads.is_stress_name "stress:deep");
  (match Workloads.stress "stress:deep@0.1" with
  | Ok p -> check_bool "scaled program has units" true (p.Ast.punits <> [])
  | Error e -> Alcotest.fail e);
  (match Workloads.stress "stress:bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown stress profile accepted");
  match Workloads.stress "stress:deep@0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-positive scale accepted"

(* ------------------------------------------------------------------ *)
(* the 100k-line flagship                                              *)
(* ------------------------------------------------------------------ *)

let flagship_round_trips () =
  let _, src =
    Oracle.Stress.scale_to_lines ~seed:42 ~target:100_000
      Oracle.Stress.many_units
  in
  check_bool "reaches 100k lines" true (Oracle.Stress.lines src >= 100_000);
  let reparsed = Parser.parse_program ~file:"flagship.f" src in
  check_bool "parses to many units" true
    (List.length reparsed.Ast.punits > 100);
  check_string "byte-identical reprint" src
    (Pretty.program_to_string reparsed)

(* ------------------------------------------------------------------ *)
(* engine and analyzer identity                                        *)
(* ------------------------------------------------------------------ *)

let first_assign_of (sess : Ped.Session.t) =
  let name = Ped.Session.unit_name sess in
  let u =
    List.find
      (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
      (Ped.Session.program sess).Ast.punits
  in
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match (acc, s.Ast.node) with
      | None, Ast.Assign _ -> Some s
      | _ -> acc)
    None u.Ast.body

(* Every profile at smoke scale, seed 42: two edit / undo / redo
   bursts on the main unit's first assignment, then the served graph
   must equal a from-scratch analysis of the session's program. *)
let incremental_equals_scratch () =
  List.iter
    (fun (p : Oracle.Stress.profile) ->
      let name = p.Oracle.Stress.sp_name in
      let program = Oracle.Stress.generate ~seed:42 (Oracle.Stress.smoke p) in
      let sess =
        Ped.Session.load ~caching:true program
          ~unit_name:(Ast.entry_unit program).Ast.uname
      in
      ignore (Ped.Session.ddg sess);
      (* the redo leaves the edited statement with a fresh id, so each
         burst re-finds its target *)
      for _ = 1 to 2 do
        let s = Option.get (first_assign_of sess) in
        (match
           Ped.Session.edit_stmt sess s.Ast.sid (Pretty.stmt_to_string s)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (name ^ ": edit: " ^ e));
        (match Ped.Session.undo sess with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (name ^ ": undo: " ^ e));
        match Ped.Session.redo sess with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (name ^ ": redo: " ^ e)
      done;
      (* from-scratch analysis of the session's current program *)
      let u =
        List.find
          (fun (u : Ast.program_unit) ->
            String.equal u.Ast.uname (Ped.Session.unit_name sess))
          (Ped.Session.program sess).Ast.punits
      in
      let summary = Interproc.Summary.analyze (Ped.Session.program sess) in
      let scratch =
        Ddg.compute
          (Interproc.Summary.env_for
             ~config:(Ped.Session.config sess)
             ~asserts:(Ped.Session.assertions sess)
             summary u)
      in
      let served = Ped.Session.ddg sess in
      check_bool (name ^ ": incremental equals scratch") true
        (Ddg.equal scratch served);
      check_string (name ^ ": same bytes") (Ddg.digest scratch) (Ddg.digest served))
    Oracle.Stress.all

(* Every profile at smoke scale, seed 42: each unit's graph built on
   a 1-, 2-, 4- and 8-domain pool equals the sequential build. *)
let parallel_equals_sequential () =
  List.iter
    (fun (p : Oracle.Stress.profile) ->
      let name = p.Oracle.Stress.sp_name in
      let program = Oracle.Stress.generate ~seed:42 (Oracle.Stress.smoke p) in
      let summary = Interproc.Summary.analyze program in
      let envs =
        List.map
          (fun (u : Ast.program_unit) ->
            (u.Ast.uname, Interproc.Summary.env_for summary u))
          program.Ast.punits
      in
      let seq = List.map (fun (_, env) -> Ddg.compute env) envs in
      List.iter
        (fun domains ->
          Runtime.Pool.with_pool domains (fun pool ->
              let runner = Runtime.Pool.analysis_runner pool in
              List.iter2
                (fun (u, env) seq_g ->
                  let par = Ddg.compute ~runner env in
                  let what = Printf.sprintf "%s/%s @%d" name u domains in
                  check_bool (what ^ ": Ddg.equal") true (Ddg.equal seq_g par);
                  check_string (what ^ ": bytes") (Ddg.digest seq_g) (Ddg.digest par))
                envs seq))
        [ 1; 2; 4; 8 ])
    Oracle.Stress.all

(* ------------------------------------------------------------------ *)
(* seed resolution and fuzz determinism                                *)
(* ------------------------------------------------------------------ *)

let seed_resolution () =
  let s = Oracle.Driver.seed_of in
  check_int "cli wins" 7 (s ~env:(Some "9") ~cli:(Some 7));
  check_int "env when no cli" 9 (s ~env:(Some "9") ~cli:None);
  check_int "env is trimmed" 9 (s ~env:(Some " 9\n") ~cli:None);
  check_int "malformed env falls through" 42 (s ~env:(Some "9x") ~cli:None);
  check_int "default" 42 (s ~env:None ~cli:None)

let fuzz_same_seed_same_stats () =
  let run () =
    Oracle.Driver.run
      {
        Oracle.Driver.default with
        Oracle.Driver.n = 4;
        seed = 11;
        oracles = [ Oracle.Driver.Dep ];
        sequences = false;
        shrink = false;
        corpus_dir = None;
        program_gen = Some (Oracle.Stress.fuzz_gen Oracle.Stress.deep);
      }
  in
  let a = run () in
  perturb_sid_counter ();
  let b = run () in
  check_bool "programs accepted" true (a.Oracle.Driver.programs > 0);
  check_bool "same stats" true (a = b);
  check_bool "oracles green" true (Oracle.Driver.ok a)

let suite =
  [
    case "same (seed, profile) means byte-identical source + fingerprint"
      same_seed_same_program;
    case "fingerprints of reparsed sources are sid-independent"
      fingerprint_survives_reparse;
    case "workloads, corpus and generated programs reparse to themselves"
      programs_reparse;
    case "profile and workload-name resolution" profiles_resolve;
    case "the 100k-line flagship parses and reprints byte-identically"
      flagship_round_trips;
    case "incremental session equals from-scratch on every profile"
      incremental_equals_scratch;
    case "pooled analysis equals sequential on every profile, 1/2/4/8 \
          domains"
      parallel_equals_sequential;
    case "seed resolution: cli, then QCHECK_SEED, then 42" seed_resolution;
    case "fuzz: same seed, same stats, oracles green"
      fuzz_same_seed_same_stats;
  ]
