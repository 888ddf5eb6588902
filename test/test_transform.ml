open Fortran_front
open Dependence
open Util

(* Apply a transformation to the (single-unit) program and check the
   interpreter produces identical output before and after. *)
let semantics_preserved ?(tol = 1e-6) (p : Ast.program)
    (p' : Ast.program) =
  let o1 = Sim.Interp.run ~honor_parallel:false p in
  let o2 = Sim.Interp.run ~honor_parallel:false p' in
  Sim.Interp.outputs_match ~tol o1.Sim.Interp.output o2.Sim.Interp.output

let single_unit_program u = { Ast.punits = [ u ] }

let check_preserved name env u' =
  check_bool (name ^ " preserves semantics") true
    (semantics_preserved
       (single_unit_program env.Depenv.punit)
       (single_unit_program u'))

let matmul_src =
  "      PROGRAM MM\n\
  \      INTEGER N\n\
  \      PARAMETER (N = 6)\n\
  \      REAL A(N,N), B(N,N), C(N,N)\n\
  \      INTEGER I, J, K\n\
  \      REAL S\n\
  \      DO I = 1, N\n\
  \        DO J = 1, N\n\
  \          A(I,J) = FLOAT(I+J)\n\
  \          B(I,J) = FLOAT(I-J)\n\
  \          C(I,J) = 0.0\n\
  \        ENDDO\n\
  \      ENDDO\n\
  \      DO K = 1, N\n\
  \        DO I = 1, N\n\
  \          DO J = 1, N\n\
  \            C(I,J) = C(I,J) + A(I,K) * B(K,J)\n\
  \          ENDDO\n\
  \        ENDDO\n\
  \      ENDDO\n\
  \      S = 0.0\n\
  \      DO I = 1, N\n\
  \        DO J = 1, N\n\
  \          S = S + C(I,J)\n\
  \        ENDDO\n\
  \      ENDDO\n\
  \      PRINT *, S\n\
  \      END\n"

let suite =
  [
    case "parallelize: safe on clean loop, flips the bit" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10)\n      DO I = 1, 10\n        A(I) = FLOAT(I)\n      ENDDO\n      PRINT *, A(5)\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let d = Transform.Parallelize.diagnose env ddg sid in
        check_bool "safe" true d.Transform.Diagnosis.safe;
        let u' = Transform.Parallelize.apply env.Depenv.punit sid in
        (match Ast.find_stmt sid u'.Ast.body with
        | Some { Ast.node = Ast.Do ({ Ast.parallel = true; _ }, _); _ } -> ()
        | _ -> Alcotest.fail "bit not flipped");
        check_preserved "parallelize" env u');
    case "parallelize: unsafe on recurrence" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10)\n      DO I = 2, 10\n        A(I) = A(I-1)\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d = Transform.Parallelize.diagnose env ddg (loop_sid (loop_by_iv env "I")) in
        check_bool "unsafe" false d.Transform.Diagnosis.safe);
    case "parallelize honours rejected deps and user privates" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10)\n      INTEGER M\n      DO I = 1, 10\n        A(I) = A(I+M)\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let blockers = Ddg.blocking env ddg sid in
        let ids = List.map (fun (d : Ddg.dep) -> d.Ddg.dep_id) blockers in
        let carried =
          List.filter
            (fun (d : Ddg.dep) -> not (List.mem d.Ddg.dep_id ids))
            (Ddg.carried_by ddg sid)
        in
        let verdict = Transform.Parallelize.verdict env ~carried sid in
        let d = Transform.Parallelize.diagnose ~verdict env ddg sid in
        check_bool "safe after rejection" true d.Transform.Diagnosis.safe);
    case "interchange: matmul K/I swap is safe and preserves" (fun () ->
        let env = env_of matmul_src in
        let ddg = ddg_of env in
        let k = loop_sid (loop_by_iv env "K") in
        let d = Transform.Interchange.diagnose env ddg k in
        check_bool "safe" true d.Transform.Diagnosis.safe;
        check_bool "profitable" true d.Transform.Diagnosis.profitable;
        let u' = Transform.Interchange.apply env.Depenv.punit k in
        check_preserved "interchange" env u';
        (* after the swap the outer loop (same sid) is parallelizable *)
        let env', ddg' = analyzer env u' in
        check_bool "outer now parallel" true (Ddg.blocking env' ddg' k = []));
    case "interchange: (<,>) dependence prevents" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(20,20)\n      DO I = 2, 10\n        DO J = 2, 10\n          A(I,J) = A(I-1,J+1)\n        ENDDO\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d = Transform.Interchange.diagnose env ddg (loop_sid (loop_by_iv env "I")) in
        check_bool "unsafe" false d.Transform.Diagnosis.safe);
    case "interchange: triangular nests rejected" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10,10)\n      DO I = 1, 10\n        DO J = I, 10\n          A(I,J) = 0.0\n        ENDDO\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d = Transform.Interchange.diagnose env ddg (loop_sid (loop_by_iv env "I")) in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
    case "distribute: recurrence separates and preserves" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL X(20), Y(20)\n      X(1) = 1.0\n      DO I = 2, 20\n        X(I) = X(I-1) * 0.9\n        Y(I) = X(I) + 1.0\n      ENDDO\n      PRINT *, X(20), Y(20)\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let parts = Transform.Distribute.partition env ddg sid in
        check_int "two components" 2 (List.length parts);
        let u' = Transform.Distribute.apply env ddg sid in
        check_preserved "distribute" env u';
        let env', ddg' = analyzer env u' in
        let pars =
          List.filter
            (fun (l : Loopnest.loop) -> Ddg.blocking env' ddg' (loop_sid l) = [])
            (Loopnest.loops env'.Depenv.nest)
        in
        check_int "one of two parallel" 1 (List.length pars));
    case "distribute keeps coupled statements together" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL X(20), T\n      DO I = 1, 20\n        T = FLOAT(I)\n        X(I) = T * 2.0\n      ENDDO\n      PRINT *, X(3)\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let parts = Transform.Distribute.partition env ddg sid in
        check_int "one component" 1 (List.length parts));
    case "fuse: conformable adjacent loops" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), B(10)\n      DO I = 1, 10\n        A(I) = FLOAT(I)\n      ENDDO\n      DO J = 1, 10\n        B(J) = A(J) * 2.0\n      ENDDO\n      PRINT *, B(7)\n      END\n"
        in
        let ddg = ddg_of env in
        let l1 = loop_sid (loop_by_iv env "I") in
        let l2 = loop_sid (loop_by_iv env "J") in
        let d = Transform.Fuse.diagnose ~analyze:(analyzer env) env ddg l1 l2 in
        check_bool "safe" true d.Transform.Diagnosis.safe;
        let u' = Transform.Fuse.apply env.Depenv.punit l1 l2 in
        check_preserved "fuse" env u';
        let env' = fst (analyzer env u') in
        check_int "one loop left" 1 (List.length (Loopnest.loops env'.Depenv.nest)));
    case "fuse: backward dependence prevents" (fun () ->
        (* the first loop reads A(I-1), which the second loop writes:
           fused, iteration i would read the NEW A(i-1) *)
        let env =
          env_of
            "      PROGRAM P\n      REAL A(12), B(12)\n      DO I = 2, 10\n        B(I) = A(I-1)\n      ENDDO\n      DO J = 2, 10\n        A(J) = FLOAT(J)\n      ENDDO\n      PRINT *, B(2)\n      END\n"
        in
        let ddg = ddg_of env in
        let l1 = loop_sid (loop_by_iv env "I") in
        let l2 = loop_sid (loop_by_iv env "J") in
        let d = Transform.Fuse.diagnose ~analyze:(analyzer env) env ddg l1 l2 in
        check_bool "unsafe" false d.Transform.Diagnosis.safe);
    case "fuse: nonconformable bounds inapplicable" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), B(12)\n      DO I = 1, 10\n        A(I) = 0.0\n      ENDDO\n      DO J = 1, 12\n        B(J) = 0.0\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d =
          Transform.Fuse.diagnose ~analyze:(analyzer env) env ddg
            (loop_sid (loop_by_iv env "I"))
            (loop_sid (loop_by_iv env "J"))
        in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
    case "reverse: safe only without carried deps, preserves" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10)\n      DO I = 1, 10\n        A(I) = FLOAT(I)\n      ENDDO\n      PRINT *, A(4)\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let d = Transform.Reverse.diagnose env ddg sid in
        check_bool "safe" true d.Transform.Diagnosis.safe;
        check_preserved "reverse" env (Transform.Reverse.apply env sid));
    case "reverse: carried dep makes it unsafe" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10)\n      DO I = 2, 10\n        A(I) = A(I-1)\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d = Transform.Reverse.diagnose env ddg (loop_sid (loop_by_iv env "I")) in
        check_bool "unsafe" false d.Transform.Diagnosis.safe);
    case "skew + interchange wavefront preserves" (fun () ->
        let w = Option.get (Workloads.by_name "sor") in
        let u = List.hd (Workloads.program w).Ast.punits in
        let env = Depenv.make (Unit_syntax.build u) in
        let i = loop_sid (loop_by_iv env "I") in
        (* the compute I loop is the one at depth 2 *)
        let i =
          match
            List.find_opt
              (fun (l : Loopnest.loop) ->
                l.Loopnest.header.Ast.dvar = "I" && l.Loopnest.depth = 2)
              (Loopnest.loops env.Depenv.nest)
          with
          | Some l -> loop_sid l
          | None -> i
        in
        let ddg = ddg_of env in
        let d = Transform.Skew.diagnose ~analyze:(analyzer env) env ddg i ~factor:1 in
        check_bool "profitable" true d.Transform.Diagnosis.profitable;
        let u1 = Transform.Skew.apply env.Depenv.punit i ~factor:1 in
        check_preserved "skew" env u1;
        let u2 = Transform.Interchange.apply u1 i in
        check_preserved "skew+interchange" env u2);
    case "strip mining preserves" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(17)\n      S = 0.0\n      DO I = 1, 17\n        A(I) = FLOAT(I)\n        S = S + A(I)\n      ENDDO\n      PRINT *, S\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let d = Transform.Strip_mine.diagnose env ddg sid ~block:4 in
        check_bool "safe" true d.Transform.Diagnosis.safe;
        check_preserved "strip" env (Transform.Strip_mine.apply env sid ~block:4));
    case "unroll: divisible trip preserves" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(12)\n      DO I = 1, 12\n        A(I) = FLOAT(2*I)\n      ENDDO\n      PRINT *, A(12)\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let d = Transform.Unroll.diagnose env ddg sid ~factor:3 in
        check_bool "ok" true (Transform.Diagnosis.ok d);
        check_preserved "unroll" env (Transform.Unroll.apply env sid ~factor:3));
    case "unroll: indivisible trip inapplicable" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10)\n      DO I = 1, 10\n        A(I) = 0.0\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d = Transform.Unroll.diagnose env ddg (loop_sid (loop_by_iv env "I")) ~factor:3 in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
    case "scalar expansion preserves and unblocks" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), B(10), T\n      DO I = 1, 10\n        T = FLOAT(I) * 2.0\n        A(I) = T + 1.0\n        B(I) = T - 1.0\n      ENDDO\n      PRINT *, A(5), B(5)\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let d = Transform.Scalar_expand.diagnose env ddg sid ~var:"T" in
        check_bool "ok" true (Transform.Diagnosis.ok d);
        let u' = Transform.Scalar_expand.apply env sid ~var:"T" in
        check_preserved "expand" env u');
    case "scalar expansion rejects non-private scalars" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), T\n      T = 1.0\n      DO I = 1, 10\n        A(I) = T\n        T = T * 0.5\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d =
          Transform.Scalar_expand.diagnose env ddg (loop_sid (loop_by_iv env "I")) ~var:"T"
        in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
    case "peel first and last preserve" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10)\n      S = 0.0\n      DO I = 1, 10\n        A(I) = FLOAT(I)\n        S = S + A(I)\n      ENDDO\n      PRINT *, S\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        check_preserved "peel-first" env (Transform.Peel.apply env sid ~which:Transform.Peel.First);
        check_preserved "peel-last" env (Transform.Peel.apply env sid ~which:Transform.Peel.Last);
        ignore ddg);
    case "statement interchange: independent statements swap" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), B(10)\n      DO I = 1, 10\n        A(I) = FLOAT(I)\n        B(I) = FLOAT(2*I)\n      ENDDO\n      PRINT *, A(3), B(3)\n      END\n"
        in
        let ddg = ddg_of env in
        let body = Loopnest.body_stmts env.Depenv.nest (loop_sid (loop_by_iv env "I")) in
        let s1 = (List.nth body 0).Ast.sid and s2 = (List.nth body 1).Ast.sid in
        let d = Transform.Stmt_interchange.diagnose env ddg s1 s2 in
        check_bool "safe" true d.Transform.Diagnosis.safe;
        check_preserved "swap" env (Transform.Stmt_interchange.apply env.Depenv.punit s1 s2));
    case "statement interchange: flow dep prevents" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), T\n      DO I = 1, 10\n        T = FLOAT(I)\n        A(I) = T\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let body = Loopnest.body_stmts env.Depenv.nest (loop_sid (loop_by_iv env "I")) in
        let s1 = (List.nth body 0).Ast.sid and s2 = (List.nth body 1).Ast.sid in
        let d = Transform.Stmt_interchange.diagnose env ddg s1 s2 in
        check_bool "unsafe" false d.Transform.Diagnosis.safe);
    case "catalog: all entries respond to wrong args" (fun () ->
        let env = env_of matmul_src in
        let ddg = ddg_of env in
        List.iter
          (fun (e : Transform.Catalog.entry) ->
            let d =
              e.Transform.Catalog.diagnose ~analyze:(analyzer env) env ddg
                (Transform.Catalog.With_var (99999, "ZZ"))
            in
            (* either rejects the shape or reports not-a-loop *)
            check_bool (e.Transform.Catalog.name ^ " rejects") false
              (Transform.Diagnosis.ok d && e.Transform.Catalog.name <> "expand"))
          Transform.Catalog.all);
    case "catalog: find and names agree" (fun () ->
        check_bool "parallelize known" true (Transform.Catalog.find "parallelize" <> None);
        check_bool "bogus unknown" true (Transform.Catalog.find "bogus" = None);
        check_int "names length" (List.length Transform.Catalog.all)
          (List.length Transform.Catalog.names));
  ]

let extra_suite =
  [
    case "normalize: strided loop preserves semantics" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(40)\n      S = 0.0\n      DO I = 3, 39, 4\n        A(I) = FLOAT(I)\n        S = S + A(I)\n      ENDDO\n      PRINT *, S, I\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let d = Transform.Normalize_loop.diagnose env ddg sid in
        check_bool "ok" true (Transform.Diagnosis.ok d);
        let u' = Transform.Normalize_loop.apply env sid in
        check_preserved "normalize" env u';
        (* the rewritten loop runs from 1 with unit stride *)
        let env' = fst (analyzer env u') in
        let lp = loop_by_iv env' "I" in
        check_bool "lo is 1" true
          (Ast.expr_equal lp.Loopnest.header.Ast.lo (Ast.Int 1));
        check_bool "no step" true (lp.Loopnest.header.Ast.step = None));
    case "normalize: negative step preserves semantics" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(40)\n      S = 0.0\n      DO I = 39, 3, -4\n        A(I) = FLOAT(I)\n        S = S + A(I) * 0.5\n      ENDDO\n      PRINT *, S\n      END\n"
        in
        let sid = loop_sid (loop_by_iv env "I") in
        check_preserved "normalize-neg" env (Transform.Normalize_loop.apply env sid));
    case "normalize: already-normal loop inapplicable" (fun () ->
        let env =
          env_of "      PROGRAM P\n      DO I = 1, 10\n        X = I\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d = Transform.Normalize_loop.diagnose env ddg (loop_sid (loop_by_iv env "I")) in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
    case "rename: two webs split and unblock" (fun () ->
        (* T holds two unrelated values per iteration; the second web
           creates no cross-statement trouble once split *)
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), B(10), T\n      DO I = 1, 10\n        T = FLOAT(I)\n        A(I) = T * 2.0\n        T = FLOAT(10 - I)\n        B(I) = T + 1.0\n      ENDDO\n      PRINT *, A(5), B(5)\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let d = Transform.Rename_scalar.diagnose env ddg sid ~var:"T" in
        check_bool "ok" true (Transform.Diagnosis.ok d);
        let u' = Transform.Rename_scalar.apply env sid ~var:"T" in
        check_preserved "rename" env u';
        (* both T and the fresh name appear *)
        let printed = Pretty.unit_to_string u' in
        check_bool "fresh name used" true (Util.contains ~needle:"T1" printed));
    case "rename: single web inapplicable" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), T\n      DO I = 1, 10\n        T = FLOAT(I)\n        A(I) = T * 2.0\n      ENDDO\n      PRINT *, A(5)\n      END\n"
        in
        let ddg = ddg_of env in
        let d =
          Transform.Rename_scalar.diagnose env ddg (loop_sid (loop_by_iv env "I")) ~var:"T"
        in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
    case "rename: upward-exposed use blocks" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), T\n      T = 1.0\n      DO I = 1, 10\n        A(I) = T\n        T = FLOAT(I)\n        A(I) = A(I) + T\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d =
          Transform.Rename_scalar.diagnose env ddg (loop_sid (loop_by_iv env "I")) ~var:"T"
        in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
  ]

let suite = suite @ extra_suite

let indsub_suite =
  [
    case "indsub: closed form preserves semantics and unlocks" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(20)\n      INTEGER K\n      K = 0\n      DO I = 1, 10\n        K = K + 2\n        A(K) = FLOAT(I)\n      ENDDO\n      PRINT *, A(20), K\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        (* bare parallelization must refuse: K is an accumulator *)
        let dp = Transform.Parallelize.diagnose env ddg sid in
        check_bool "parallelize unsafe" false dp.Transform.Diagnosis.safe;
        let d = Transform.Indsub.diagnose env ddg sid ~var:"K" in
        check_bool "indsub ok" true (Transform.Diagnosis.ok d);
        let u' = Transform.Indsub.apply env sid ~var:"K" in
        check_preserved "indsub" env u';
        (* after substitution the loop parallelizes and stays order
           independent *)
        let env', ddg' = analyzer env u' in
        let sid' = loop_sid (loop_by_iv env' "I") in
        let dp' = Transform.Parallelize.diagnose env' ddg' sid' in
        check_bool "parallelize safe now" true dp'.Transform.Diagnosis.safe;
        let u'' = Transform.Parallelize.apply u' sid' in
        let p = { Ast.punits = [ u'' ] } in
        let a = Sim.Interp.run ~par_order:Sim.Interp.Seq p in
        let b = Sim.Interp.run ~par_order:Sim.Interp.Reverse p in
        check_bool "order independent" true
          (Sim.Interp.outputs_match a.Sim.Interp.output b.Sim.Interp.output));
    case "indsub: final value correct on symbolic bounds" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(40)\n      INTEGER K, N\n      N = 7\n      K = 0\n      DO I = 1, N\n        K = K + 1\n        A(K) = 1.0\n      ENDDO\n      PRINT *, K\n      END\n"
        in
        let sid = loop_sid (loop_by_iv env "I") in
        check_preserved "indsub-symbolic" env (Transform.Indsub.apply env sid ~var:"K"));
    case "indsub: rejects non-induction variables" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(10), T\n      DO I = 1, 10\n        T = FLOAT(I)\n        A(I) = T\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d =
          Transform.Indsub.diagnose env ddg (loop_sid (loop_by_iv env "I")) ~var:"T"
        in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
  ]

let suite = suite @ indsub_suite

let coalesce_suite =
  [
    case "coalesce: product loop preserves semantics" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(6,4)\n      S = 0.0\n      DO I = 1, 6\n        DO J = 1, 4\n          A(I,J) = FLOAT(10*I + J)\n          S = S + A(I,J)\n        ENDDO\n      ENDDO\n      PRINT *, S, A(3,2)\n      END\n"
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "I") in
        let d = Transform.Coalesce.diagnose env ddg sid in
        check_bool "ok" true (Transform.Diagnosis.ok d);
        let u' = Transform.Coalesce.apply env sid in
        check_preserved "coalesce" env u';
        let env' = fst (analyzer env u') in
        check_int "one loop" 1 (List.length (Loopnest.loops env'.Depenv.nest)));
    case "coalesce: lower bounds other than 1 preserved" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(8,8)\n      S = 0.0\n      DO I = 3, 7\n        DO J = 2, 6\n          A(I,J) = FLOAT(I - J)\n          S = S + A(I,J)\n        ENDDO\n      ENDDO\n      PRINT *, S\n      END\n"
        in
        let sid = loop_sid (loop_by_iv env "I") in
        check_preserved "coalesce-lb" env (Transform.Coalesce.apply env sid));
    case "coalesce: symbolic bounds inapplicable" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(8,8)\n      DO I = 1, N\n        DO J = 1, 8\n          A(1,J) = 0.0\n        ENDDO\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d = Transform.Coalesce.diagnose env ddg (loop_sid (loop_by_iv env "I")) in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
  ]

let suite = suite @ coalesce_suite

(* ------------------------------------------------------------------ *)
(* Stride and trip-count edge cases — zero-trip loops, negative
   steps, non-unit strides — the corners the fuzzing oracles
   (lib/oracle) flushed out in reverse, peel and strip mining.       *)

(* A random-access frame: fill A, run [body], checksum A.  The loop
   under test uses M (and L when nested) so [loop_by_iv] is
   unambiguous. *)
let edge_src body =
  Printf.sprintf
    "      PROGRAM E\n\
    \      REAL A(40)\n\
    \      DO I = 1, 40\n\
    \        A(I) = FLOAT(41 - I)\n\
    \      ENDDO\n\
     %s\
    \      S = 0.0\n\
    \      DO I = 1, 40\n\
    \        S = S + A(I)\n\
    \      ENDDO\n\
    \      PRINT *, S\n\
    \      END\n"
    body

(* Diagnose a catalog instance on [src]; when approved, apply it and
   require identical simulated output.  [expect_live] additionally
   requires the approval (the instance is known transformable). *)
let exercise ?(expect_live = false) name args_of src =
  let env = env_of src in
  let ddg = ddg_of env in
  let entry = Option.get (Transform.Catalog.find name) in
  let args = args_of env in
  let d = entry.Transform.Catalog.diagnose ~analyze:(analyzer env) env ddg args in
  if Transform.Diagnosis.ok d then (
    match entry.Transform.Catalog.apply env ddg args with
    | Ok u' ->
      check_preserved name env u';
      Some u'
    | Error d' ->
      Alcotest.failf "%s refused after an ok diagnosis: %s" name
        (Transform.Diagnosis.to_string d'))
  else if expect_live then
    Alcotest.failf "%s unexpectedly refused: %s" name
      (Transform.Diagnosis.to_string d)
  else None

let on_m env = Transform.Catalog.On_loop (loop_sid (loop_by_iv env "M"))

let with_factor f env =
  Transform.Catalog.With_factor (loop_sid (loop_by_iv env "M"), f)

let edge_suite =
  [
    case "reverse: non-unit stride starts on the last reached value"
      (fun () ->
        let u' =
          exercise ~expect_live:true "reverse" on_m
            (edge_src
               "      DO M = 1, 10, 2\n\
               \        A(M) = A(M) + FLOAT(M)\n\
               \      ENDDO\n")
        in
        check_bool "header starts at 9" true
          (contains ~needle:"DO M = 9, 1," (Pretty.unit_to_string (Option.get u'))));
    case "reverse: negative non-unit stride" (fun () ->
        let u' =
          exercise ~expect_live:true "reverse" on_m
            (edge_src
               "      DO M = 10, 1, -3\n\
               \        A(M) = A(M) * 0.5\n\
               \      ENDDO\n")
        in
        check_bool "header is DO M = 1, 10, 3" true
          (contains ~needle:"DO M = 1, 10, 3"
             (Pretty.unit_to_string (Option.get u'))));
    case "reverse: zero-trip loop stays zero-trip" (fun () ->
        ignore
          (exercise ~expect_live:true "reverse" on_m
             (edge_src
                "      DO M = 4, 3, 2\n\
                \        A(M) = 0.0\n\
                \      ENDDO\n")));
    case "peel-last: non-unit stride peels the last reached value"
      (fun () ->
        ignore
          (exercise ~expect_live:true "peel-last" on_m
             (edge_src
                "      DO M = 1, 11, 3\n\
                \        A(M) = A(M) + 1.0\n\
                \      ENDDO\n")));
    case "peel-first: negative step" (fun () ->
        ignore
          (exercise ~expect_live:true "peel-first" on_m
             (edge_src
                "      DO M = 10, 2, -2\n\
                \        A(M) = A(M) + 1.0\n\
                \      ENDDO\n")));
    case "peel: zero-trip loop" (fun () ->
        ignore
          (exercise "peel-first" on_m
             (edge_src
                "      DO M = 9, 3\n\
                \        A(M) = 0.0\n\
                \      ENDDO\n")));
    case "strip: non-unit stride" (fun () ->
        ignore
          (exercise ~expect_live:true "strip" (with_factor 4)
             (edge_src
                "      DO M = 1, 20, 3\n\
                \        A(M) = A(M) + 2.0\n\
                \      ENDDO\n")));
    case "strip: negative step" (fun () ->
        ignore
          (exercise ~expect_live:true "strip" (with_factor 4)
             (edge_src
                "      DO M = 20, 1, -3\n\
                \        A(M) = A(M) * 0.5\n\
                \      ENDDO\n")));
    case "strip: zero-trip loop" (fun () ->
        ignore
          (exercise "strip" (with_factor 2)
             (edge_src
                "      DO M = 5, 4\n\
                \        A(M) = 0.0\n\
                \      ENDDO\n")));
    case "skew: zero-trip inner loop" (fun () ->
        ignore
          (exercise "skew" (with_factor 1)
             (edge_src
                "      DO M = 1, 6\n\
                \        DO L = 8, 3\n\
                \          A(L) = A(L) + 1.0\n\
                \        ENDDO\n\
                \      ENDDO\n")));
    case "tile: zero-trip outer loop" (fun () ->
        ignore
          (exercise "tile" (with_factor 3)
             (edge_src
                "      DO M = 6, 1\n\
                \        DO L = 1, 8\n\
                \          A(L) = A(L) * 0.5\n\
                \        ENDDO\n\
                \      ENDDO\n")));
    case "tile: non-unit inner stride" (fun () ->
        ignore
          (exercise "tile" (with_factor 3)
             (edge_src
                "      DO M = 1, 6\n\
                \        DO L = 1, 20, 2\n\
                \          A(L) = A(L) + FLOAT(M)\n\
                \        ENDDO\n\
                \      ENDDO\n")));
    case "expand: non-unit stride copies out the last reached value"
      (fun () ->
        let u' =
          exercise ~expect_live:true "expand"
            (fun env ->
              Transform.Catalog.With_var
                (loop_sid (loop_by_iv env "M"), "T"))
            (edge_src
               "      DO M = 3, 8, 2\n\
               \        T = 3.0 + A(M + M)\n\
               \        A(M) = T\n\
               \      ENDDO\n\
               \      A(1) = T\n")
        in
        check_bool "copy-out reads TX(7), the last iteration" true
          (contains ~needle:"TX(7)" (Pretty.unit_to_string (Option.get u'))));
    case "expand: refuses an inner loop's induction variable" (fun () ->
        let env =
          env_of
            (edge_src
               "      DO M = 1, 6\n\
               \        DO L = 1, 6\n\
               \          A(L) = A(L) + FLOAT(M)\n\
               \        ENDDO\n\
               \      ENDDO\n")
        in
        let ddg = ddg_of env in
        let sid = loop_sid (loop_by_iv env "M") in
        let d = Transform.Scalar_expand.diagnose env ddg sid ~var:"L" in
        check_bool "diagnosed not ok" false (Transform.Diagnosis.ok d);
        (try
           ignore (Transform.Scalar_expand.apply env sid ~var:"L");
           Alcotest.fail "apply accepted an induction variable"
         with Invalid_argument _ -> ()));
  ]

let suite = suite @ edge_suite
