(* Engine cache correctness and hit/miss accounting.

   The load-bearing property: whatever mix of edits, undos, redos,
   refocuses and assertions a session has absorbed, the engine-served
   dependence graph is structurally identical to a from-scratch
   analysis of the session's current program and assertions.  The
   graph (deps + statistics) is pure data, so polymorphic equality is
   the oracle; environments hold closures and are compared only
   through the graphs they produce. *)

open Fortran_front
open Dependence
open Util

let load ?(caching = true) name =
  let w = Option.get (Workloads.by_name name) in
  (w, Ped.Session.load ~caching (Workloads.program w)
        ~unit_name:(Workloads.main_unit w))

let focus_unit_of sess =
  let name = Ped.Session.unit_name sess in
  List.find
    (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
    (Ped.Session.program sess).Ast.punits

(* From-scratch graph of the session's current program + assertions. *)
let scratch_ddg sess =
  let u = focus_unit_of sess in
  let env =
    match Ped.Session.interproc sess with
    | Some _ ->
      let summary = Interproc.Summary.analyze (Ped.Session.program sess) in
      Interproc.Summary.env_for ~config:(Ped.Session.config sess)
        ~asserts:(Ped.Session.assertions sess) summary u
    | None ->
      Depenv.make ~config:(Ped.Session.config sess)
        ~asserts:(Ped.Session.assertions sess) u
  in
  Ddg.compute env

let check_scratch what sess =
  check_bool (what ^ ": engine ddg = from-scratch ddg") true
    (Ped.Session.ddg sess = scratch_ddg sess)

let first_assign sess =
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match (acc, s.Ast.node) with
      | None, Ast.Assign _ -> Some s
      | _ -> acc)
    None (focus_unit_of sess).Ast.body

let ok_exn what = function Ok _ -> () | Error e -> failwith (what ^ ": " ^ e)

(* Re-submit a statement's own pretty-printed text: semantically the
   identity edit, but it re-parses to fresh statement ids — the
   canonical "user retyped the line" invalidation. *)
let identity_edit sess =
  match first_assign sess with
  | None -> failwith "workload has no assignment statement"
  | Some s ->
    ok_exn "edit"
      (Ped.Session.edit_stmt sess s.Ast.sid (Pretty.stmt_to_string s))

(* --- correctness across every workload ---------------------------- *)

let burst_case (w : Workloads.t) =
  case (w.Workloads.name ^ ": incremental = from-scratch through a burst")
    (fun () ->
      let _, sess = load w.Workloads.name in
      check_scratch "load" sess;
      List.iter
        (fun cmd -> ignore (Ped.Command.run sess cmd))
        w.Workloads.assertion_script;
      check_scratch "asserts" sess;
      identity_edit sess;
      check_scratch "edit" sess;
      ok_exn "undo" (Ped.Session.undo sess);
      check_scratch "undo" sess;
      ok_exn "redo" (Ped.Session.redo sess);
      check_scratch "redo" sess)

(* --- incremental interprocedural summary --------------------------- *)

(* Each step rewrites one unit of the program the way an edit does:
   the other units stay physically shared, so the engine's next
   summary reuses their per-unit results.  After every step the
   engine's summary must equal a from-scratch [Summary.analyze]. *)

let unit_of (p : Ast.program) name =
  List.find
    (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
    p.Ast.punits

let with_unit (p : Ast.program) (u : Ast.program_unit) =
  {
    Ast.punits =
      List.map
        (fun (x : Ast.program_unit) ->
          if String.equal x.Ast.uname u.Ast.uname then u else x)
        p.Ast.punits;
  }

let find_stmt f (u : Ast.program_unit) =
  Ast.fold_stmts
    (fun acc s -> match acc with None when f s -> Some s | _ -> acc)
    None u.Ast.body

let is_assign (s : Ast.stmt) =
  match s.Ast.node with Ast.Assign _ -> true | _ -> false

let is_call (s : Ast.stmt) =
  match s.Ast.node with Ast.Call _ -> true | _ -> false

let replace p u (s : Ast.stmt) repl =
  with_unit p (Transform.Rewrite.replace_stmt u s.Ast.sid repl)

let first_site p =
  List.hd (Interproc.Callgraph.sites (Interproc.Callgraph.build p))

let caller_of_first_site p =
  unit_of p (first_site p).Interproc.Callgraph.caller

let callee_of_first_site p =
  unit_of p (first_site p).Interproc.Callgraph.callee

(* the same text re-entered: fresh statement id, same effects *)
let body_only p =
  let u =
    List.find
      (fun (u : Ast.program_unit) ->
        u.Ast.kind <> Ast.Main && find_stmt is_assign u <> None)
      p.Ast.punits
  in
  let s = Option.get (find_stmt is_assign u) in
  replace p u s [ { s with Ast.sid = Ast.fresh_sid () } ]

(* the first call site's CALL again, after an assignment of its caller *)
let add_call p =
  let site = first_site p in
  let u = caller_of_first_site p in
  let s = Option.get (find_stmt is_assign u) in
  let call =
    Ast.Call (site.Interproc.Callgraph.callee, site.Interproc.Callgraph.actuals)
  in
  replace p u s [ s; Ast.mk call ]

let map_first_call f p =
  let u = caller_of_first_site p in
  let s = Option.get (find_stmt is_call u) in
  replace p u s [ Ast.mk (f s.Ast.node) ]

let remove_call = map_first_call (fun _ -> Ast.Continue)

let change_actual =
  map_first_call (function
    | Ast.Call (callee, ([ _ ] | [])) -> Ast.Call (callee, [ Ast.Int 1 ])
    | Ast.Call (callee, actuals) -> Ast.Call (callee, List.rev actuals)
    | node -> node)

(* take the first site's callee's first COMMON variable out of COMMON;
   with none, put its first assigned local scalar (or DO index) in *)
let toggle_common p =
  let u = callee_of_first_site p in
  let formals =
    match u.Ast.kind with
    | Ast.Subroutine fs | Ast.Function (_, fs) -> fs
    | Ast.Main -> []
  in
  let local (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Assign (Ast.Var v, _) when not (List.mem v formals) -> Some v
    | Ast.Do (h, _) when not (List.mem h.Ast.dvar formals) -> Some h.Ast.dvar
    | _ -> None
  in
  let set_common name block =
    List.map
      (fun (d : Ast.decl) ->
        if String.equal d.Ast.dname name then { d with Ast.common_block = block }
        else d)
      u.Ast.decls
  in
  let decls =
    match
      List.find_opt (fun (d : Ast.decl) -> d.Ast.common_block <> None) u.Ast.decls
    with
    | Some d -> set_common d.Ast.dname None
    | None -> (
      match Option.bind (find_stmt (fun s -> local s <> None) u) local with
      | None -> Alcotest.fail ("no local scalar assignment in " ^ u.Ast.uname)
      | Some v
        when List.exists (fun (d : Ast.decl) -> String.equal d.Ast.dname v) u.Ast.decls
        ->
        set_common v (Some "ZZ")
      | Some v ->
        let dtyp = if v.[0] >= 'I' && v.[0] <= 'N' then Ast.Tinteger else Ast.Treal in
        u.Ast.decls
        @ [ { Ast.dname = v; dtyp; dims = []; init = None; data_init = None;
              common_block = Some "ZZ" } ])
  in
  with_unit p { u with Ast.decls }

let reverse_formals p =
  let u = callee_of_first_site p in
  match u.Ast.kind with
  | Ast.Subroutine fs ->
    with_unit p { u with Ast.kind = Ast.Subroutine (List.rev fs @ [ "XTRA" ]) }
  | _ -> Alcotest.fail (u.Ast.uname ^ " is not a subroutine")

let check_summary what eng =
  check_bool (what ^ ": engine summary = from-scratch summary") true
    (Interproc.Summary.equal
       (Option.get (Engine.summary eng))
       (Interproc.Summary.analyze (Engine.program eng)))

(* edits, then undo/redo by restoring earlier program values, then an
   edit on top of the restored program *)
let summary_script what (p0 : Ast.program) =
  let eng = Engine.create p0 in
  check_summary (what ^ " load") eng;
  let set name p =
    Engine.set_program eng p;
    check_summary (what ^ " " ^ name) eng
  in
  let step name f = set name (f (Engine.program eng)) in
  step "body-only edit" body_only;
  step "add a CALL" add_call;
  step "change an actual" change_actual;
  step "remove a CALL" remove_call;
  let before_common = Engine.program eng in
  step "change a COMMON declaration" toggle_common;
  let before_formals = Engine.program eng in
  step "change a formal list" reverse_formals;
  let newest = Engine.program eng in
  set "undo" before_formals;
  set "undo again" before_common;
  set "redo" before_formals;
  step "edit after undo" body_only;
  set "back to the newest" newest;
  step "COMMON back" toggle_common

let recursive_src =
  "      PROGRAM P\n      REAL A(10)\n      K = 3\n      CALL R(A, K)\n\
  \      PRINT *, A(1)\n      END\n\
  \      SUBROUTINE R(B, N)\n      REAL B(10)\n      T = 1.0\n      B(N) = T\n\
  \      IF (N .GT. 1) CALL R(B, N - 1)\n      END\n"

(* A leaf's kills and sections reach its caller through a wrapper. *)
let wrapper_src leaf_body =
  "      PROGRAM P\n      COMMON /G/ Q\n      REAL A(10)\n      CALL W(A, X)\n\
  \      PRINT *, X, Q, A(1)\n      END\n\
  \      SUBROUTINE W(B, Y)\n      COMMON /G/ Q\n      REAL B(10)\n\
  \      CALL S(B, Y)\n      END\n\
  \      SUBROUTINE S(C, Z)\n      COMMON /G/ Q\n      REAL C(10)\n"
  ^ leaf_body ^ "      END\n"

let leaf_edits_reach_the_wrapper () =
  let p0 = parse (wrapper_src "      Z = 1.0\n      Q = 2.0\n      C(1) = Z\n") in
  let eng = Engine.create p0 in
  check_summary "wrapper load" eng;
  List.iter
    (fun (what, body) ->
      let leaf = unit_of (parse (wrapper_src body)) "S" in
      Engine.set_program eng (with_unit (Engine.program eng) leaf);
      check_summary what eng;
      check_bool (what ^ ": the wrapper is re-solved") true
        (List.mem "W"
           (Interproc.Summary.recomputed (Option.get (Engine.summary eng)))))
    [
      ( "a kill becomes conditional",
        "      IF (Q .GT. 0.0) Z = 1.0\n      Q = 2.0\n      C(1) = Z\n" );
      ( "a written section moves",
        "      IF (Q .GT. 0.0) Z = 1.0\n      Q = 2.0\n      C(2) = Z\n" );
      ("the kill returns", "      Z = 1.0\n      Q = 2.0\n      C(2) = Z\n");
    ]

let summary_cases =
  List.map
    (fun name ->
      case ("summary: incremental = from-scratch through edits on " ^ name)
        (fun () ->
          let p =
            match Workloads.stress name with
            | Ok p -> p
            | Error _ -> Workloads.program (Option.get (Workloads.by_name name))
          in
          summary_script name p))
    [ "stress:many-units@smoke"; "callnest"; "symbounds"; "spec77x"; "sympro";
      "shallow" ]
  @ [
      case "summary: incremental = from-scratch on a self-recursive unit"
        (fun () ->
          let p = parse recursive_src in
          check_bool "R calls itself" true
            (List.mem "R"
               (Interproc.Callgraph.callees_of (Interproc.Callgraph.build p) "R"));
          summary_script "recursive" p);
      case "summary: a leaf's kills and sections reach its caller"
        leaf_edits_reach_the_wrapper;
      case "summary: equal tells summaries apart" (fun () ->
          let p = Workloads.program (Option.get (Workloads.by_name "callnest")) in
          let s = Interproc.Summary.analyze p in
          check_bool "reflexive" true
            (Interproc.Summary.equal s (Interproc.Summary.analyze p));
          check_bool "a removed CALL differs" false
            (Interproc.Summary.equal s (Interproc.Summary.analyze (remove_call p))));
      case "summary: a body-only edit recomputes exactly one unit" (fun () ->
          let p = Result.get_ok (Workloads.stress "stress:many-units@smoke") in
          let sess = Ped.Session.load p ~unit_name:"STRESS" in
          let recomputed () =
            Telemetry.value
              (Telemetry.counter (Ped.Session.telemetry sess)
                 "engine.summary_units_recomputed")
          in
          check_int "the first build solves every unit"
            (List.length p.Ast.punits) (recomputed ());
          ok_exn "focus" (Ped.Session.focus sess "S0000");
          let before = recomputed () in
          identity_edit sess;
          check_int "one unit re-solved" 1 (recomputed () - before);
          check_scratch "after the edit" sess);
    ]

(* --- hit/miss accounting ------------------------------------------ *)

let delta (a : Engine.stats) (b : Engine.stats) f = f b - f a

(* --- candidate analyses ------------------------------------------- *)

let smoke_deep () =
  Oracle.Stress.generate (Oracle.Stress.smoke Oracle.Stress.deep)

let unit_names (p : Ast.program) =
  List.map (fun (u : Ast.program_unit) -> u.Ast.uname) p.Ast.punits

(* Every skew, tile and fuse diagnosis of every unit, as printed. *)
let candidate_diagnoses sess =
  List.concat_map
    (fun name ->
      ok_exn "focus" (Ped.Session.focus sess name);
      Transform.Catalog.sites (Ped.Session.env sess)
      |> List.filter (fun (t, _) -> List.mem t [ "skew"; "tile"; "fuse" ])
      |> List.map (fun (t, args) ->
             match Ped.Session.diagnose sess t args with
             | Ok d -> t ^ ": " ^ Transform.Diagnosis.to_string d
             | Error e -> e))
    (unit_names (Ped.Session.program sess))

(* A warm session (every unit analysed, buckets shared with the
   candidates) prints the diagnoses a from-scratch session prints. *)
let warm_candidates_match_scratch (name, program) =
  let load caching =
    Ped.Session.load ~caching program
      ~unit_name:(Ast.entry_unit program).Ast.uname
  in
  let warm = load true in
  List.iter (fun u -> ok_exn "focus" (Ped.Session.focus warm u))
    (unit_names program);
  let scratch = candidate_diagnoses (load false) in
  check_bool (name ^ " has candidates") true (scratch <> []);
  Alcotest.(check (list string)) name scratch (candidate_diagnoses warm)

(* Advise analyses candidates without touching the unit's cached
   analysis: a refresh afterwards is a hit on the very same graph.
   A loops read first builds the callees' environments, which advise
   prices the loops with, so no environment is left to build. *)
let candidates_leave_the_unit_alone () =
  let tel = Telemetry.make ~record_spans:true () in
  let program = smoke_deep () in
  let sess = Ped.Session.load ~telemetry:tel program ~unit_name:"STRESS" in
  List.iter
    (fun name ->
      ok_exn "focus" (Ped.Session.focus sess name);
      ignore (Ped.Pane.loops_pane sess);
      let ddg = Ped.Session.ddg sess and s0 = Ped.Session.engine_stats sess in
      ignore (Ped.Command.run sess "advise");
      Ped.Session.reanalyze sess;
      let s1 = Ped.Session.engine_stats sess in
      check_bool (name ^ ": same graph") true (Ped.Session.ddg sess == ddg);
      check_int (name ^ ": no env miss") 0
        (delta s0 s1 (fun s -> s.Engine.env_misses));
      check_int (name ^ ": no invalidation") 0
        (delta s0 s1 (fun s -> s.Engine.invalidations)))
    (unit_names program);
  check_bool "advise analysed candidates" true
    (List.exists
       (fun (r : Telemetry.span_record) -> r.Telemetry.sp_name = "engine.candidate")
       (Telemetry.spans tel))

(* Candidates share the engine's bucket cache.  One advise per unit of
   smoke:deep ran 3,559 pair tests when each candidate graph was built
   uncached, and runs 545 through the engine. *)
let advise_tests_bounded () =
  let tel = Telemetry.make () in
  let prev = Telemetry.default () in
  Fun.protect ~finally:(fun () -> Telemetry.set_default prev) @@ fun () ->
  Telemetry.set_default tel;
  let program = smoke_deep () in
  let sess = Ped.Session.load ~telemetry:tel program ~unit_name:"STRESS" in
  let tests = Telemetry.counter tel "ddg.tests_executed" in
  let n =
    List.fold_left
      (fun n name ->
        ok_exn "focus" (Ped.Session.focus sess name);
        let before = Telemetry.value tests in
        ignore (Ped.Command.run sess "advise");
        n + Telemetry.value tests - before)
      0 (unit_names program)
  in
  check_bool (Printf.sprintf "%d pair tests (bound 1000)" n) true (n <= 1000)

let candidate_cases =
  List.map
    (fun (w : Workloads.t) ->
      case ("candidates on " ^ w.Workloads.name ^ ": warm = scratch")
        (fun () ->
          warm_candidates_match_scratch
            (w.Workloads.name, Ast.renumber_program (Workloads.program w))))
    Workloads.all
  @ List.map
      (fun (p : Oracle.Stress.profile) ->
        let name = "smoke:" ^ p.Oracle.Stress.sp_name in
        case ("candidates on " ^ name ^ ": warm = scratch") (fun () ->
            warm_candidates_match_scratch
              (name, Oracle.Stress.generate (Oracle.Stress.smoke p))))
      Oracle.Stress.all
  @ [
      case "candidates: advise leaves the unit's analysis alone"
        candidates_leave_the_unit_alone;
      case "candidates: advise on smoke:deep shares the bucket cache"
        advise_tests_bounded;
    ]

let suite =
  List.map burst_case Workloads.all
  @ summary_cases
  @ candidate_cases
  @ [
      case "stats: clean refresh is a pure cache hit" (fun () ->
          let _, sess = load "matmul" in
          let s0 = Ped.Session.engine_stats sess in
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_int "env hit" 1 (delta s0 s1 (fun s -> s.Engine.env_hits));
          check_int "no miss" 0 (delta s0 s1 (fun s -> s.Engine.env_misses));
          check_int "no tests" 0 (delta s0 s1 (fun s -> s.Engine.tests_run)));
      case "stats: edit invalidates but reuses untouched buckets" (fun () ->
          let _, sess = load "jacobi" in
          (* a fresh session's initial analysis = the full cost *)
          let full = (Ped.Session.engine_stats sess).Engine.tests_run in
          let s0 = Ped.Session.engine_stats sess in
          identity_edit sess;
          let s1 = Ped.Session.engine_stats sess in
          check_bool "invalidated" true
            (delta s0 s1 (fun s -> s.Engine.invalidations) >= 1);
          check_bool "recomputed" true
            (delta s0 s1 (fun s -> s.Engine.env_misses) >= 1);
          check_bool "some buckets reused" true
            (delta s0 s1 (fun s -> s.Engine.ddg_bucket_hits) >= 1);
          let retested = delta s0 s1 (fun s -> s.Engine.tests_run) in
          check_bool "retested strictly less than full" true
            (retested < full && retested >= 0));
      case "stats: undo and redo run no dependence tests" (fun () ->
          let _, sess = load "jacobi" in
          identity_edit sess;
          let s0 = Ped.Session.engine_stats sess in
          ok_exn "undo" (Ped.Session.undo sess);
          let s1 = Ped.Session.engine_stats sess in
          check_int "undo: no tests" 0
            (delta s0 s1 (fun s -> s.Engine.tests_run));
          check_bool "undo: summary from cache" true
            (delta s0 s1 (fun s -> s.Engine.summary_hits) >= 1);
          check_int "undo: no summary rebuild" 0
            (delta s0 s1 (fun s -> s.Engine.summary_builds));
          ok_exn "redo" (Ped.Session.redo sess);
          let s2 = Ped.Session.engine_stats sess in
          check_int "redo: no tests" 0
            (delta s1 s2 (fun s -> s.Engine.tests_run)));
      case "stats: undo rebuilds no summary among the last 8 programs"
        (fun () ->
          let _, sess = load "callnest" in
          for k = 1 to 10 do
            match first_assign sess with
            | Some { Ast.sid; node = Ast.Assign (lhs, _); _ } ->
              ok_exn "edit"
                (Ped.Session.edit_stmt sess sid
                   (Printf.sprintf "%s = %d" (Pretty.expr_to_string lhs) k))
            | _ -> failwith "no assignment"
          done;
          (* the engine holds edits 3..10; undo 8 reaches edit 2 *)
          for k = 1 to 10 do
            let s0 = Ped.Session.engine_stats sess in
            ok_exn "undo" (Ped.Session.undo sess);
            let s1 = Ped.Session.engine_stats sess in
            check_int
              (Printf.sprintf "undo %d: summaries built" k)
              (if k <= 7 then 0 else 1)
              (delta s0 s1 (fun s -> s.Engine.summary_builds));
            check_scratch (Printf.sprintf "undo %d" k) sess
          done);
      case "stats: refocus back to a cached unit is a hit" (fun () ->
          let _, sess = load "callnest" in
          ok_exn "focus" (Ped.Session.focus sess "ROWOP");
          let s0 = Ped.Session.engine_stats sess in
          ok_exn "refocus" (Ped.Session.focus sess "CALLNE");
          let s1 = Ped.Session.engine_stats sess in
          check_int "env hit" 1 (delta s0 s1 (fun s -> s.Engine.env_hits));
          check_int "no tests" 0 (delta s0 s1 (fun s -> s.Engine.tests_run));
          check_scratch "refocus" sess);
      case "stats: assertion change invalidates and stays correct" (fun () ->
          let _, sess = load "symbounds" in
          let s0 = Ped.Session.engine_stats sess in
          Ped.Session.assert_value sess "M" 64;
          let s1 = Ped.Session.engine_stats sess in
          check_bool "invalidated" true
            (delta s0 s1 (fun s -> s.Engine.invalidations) >= 1);
          check_scratch "assert" sess);
      case "baseline mode recomputes everything" (fun () ->
          let _, sess = load ~caching:false "matmul" in
          let full = (Ped.Session.engine_stats sess).Engine.tests_run in
          check_bool "initial analysis ran tests" true (full > 0);
          let s0 = Ped.Session.engine_stats sess in
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_int "refresh pays full price again" full
            (delta s0 s1 (fun s -> s.Engine.tests_run));
          check_scratch "baseline" sess);
      case "baseline mode builds one summary per program" (fun () ->
          let sess =
            Ped.Session.load ~caching:false (smoke_deep ()) ~unit_name:"S0001"
          in
          ignore (Ped.Command.run sess "loops");
          ignore (Ped.Command.run sess "advise");
          check_int "summaries built" 1
            (Ped.Session.engine_stats sess).Engine.summary_builds);
    ]
