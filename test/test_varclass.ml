open Fortran_front
open Scalar_analysis
open Util

let classify ?recognize_reductions src iv =
  let env = env_of src in
  let lp = loop_by_iv env iv in
  Varclass.classify ?recognize_reductions ~cfg:env.Dependence.Depenv.cfg
    env.Dependence.Depenv.ctx env.Dependence.Depenv.liveness lp.Dependence.Loopnest.lstmt

let cls ?recognize_reductions src iv var =
  Option.map Varclass.classification_to_string
    (Varclass.lookup (classify ?recognize_reductions src iv) var)

let prog body decls =
  Printf.sprintf "      PROGRAM P\n%s%s      END\n" decls body

let suite =
  [
    case "loop variable is induction" (fun () ->
        let src = prog "      DO I = 1, 10\n        X = I\n      ENDDO\n" "" in
        check_bool "ind" true (cls src "I" "I" = Some "induction"));
    case "aux induction K = K + 2" (fun () ->
        let src =
          prog "      K = 0\n      DO I = 1, 10\n        K = K + 2\n        X = K\n      ENDDO\n" ""
        in
        check_bool "aux" true (cls src "I" "K" = Some "induction"));
    case "killed scalar is private" (fun () ->
        let src =
          prog "      DO I = 1, 10\n        T = 2.0 * I\n        X = T + 1.0\n      ENDDO\n" ""
        in
        match cls src "I" "T" with
        | Some ("private" | "private(lastvalue)") -> ()
        | c -> Alcotest.failf "T classified %s" (Option.value ~default:"?" c));
    case "upward exposed scalar is unsafe" (fun () ->
        let src =
          prog "      T = 0.0\n      DO I = 1, 10\n        X = T\n        T = 2.0 * I\n      ENDDO\n" ""
        in
        check_bool "unsafe" true (cls src "I" "T" = Some "shared(unsafe)"));
    case "sum reduction recognized" (fun () ->
        let src =
          prog "      S = 0.0\n      DO I = 1, 10\n        S = S + A(I)\n      ENDDO\n"
            "      REAL A(10)\n"
        in
        check_bool "sum" true (cls src "I" "S" = Some "reduction(+)"));
    case "flattened sum reduction recognized" (fun () ->
        let src =
          prog "      S = 0.0\n      DO I = 1, 10\n        S = S + A(I) + B(I)\n      ENDDO\n"
            "      REAL A(10), B(10)\n"
        in
        check_bool "sum2" true (cls src "I" "S" = Some "reduction(+)"));
    case "subtraction reduction recognized" (fun () ->
        let src =
          prog "      S = 0.0\n      DO I = 1, 10\n        S = S - A(I)\n      ENDDO\n"
            "      REAL A(10)\n"
        in
        check_bool "sub" true (cls src "I" "S" = Some "reduction(+)"));
    case "s = e - s is NOT a reduction" (fun () ->
        let src =
          prog "      S = 0.0\n      DO I = 1, 10\n        S = A(I) - S\n      ENDDO\n"
            "      REAL A(10)\n"
        in
        check_bool "not" true (cls src "I" "S" = Some "shared(unsafe)"));
    case "product reduction" (fun () ->
        let src =
          prog "      PR = 1.0\n      DO I = 1, 10\n        PR = PR * A(I)\n      ENDDO\n"
            "      REAL A(10)\n"
        in
        check_bool "prod" true (cls src "I" "PR" = Some "reduction(*)"));
    case "max and min reductions" (fun () ->
        let src =
          prog
            "      BIG = 0.0\n      DO I = 1, 10\n        BIG = MAX(BIG, A(I))\n      ENDDO\n"
            "      REAL A(10)\n"
        in
        check_bool "max" true (cls src "I" "BIG" = Some "reduction(max)"));
    case "reduction disabled reverts to unsafe" (fun () ->
        let src =
          prog "      S = 0.0\n      DO I = 1, 10\n        S = S + A(I)\n      ENDDO\n"
            "      REAL A(10)\n"
        in
        check_bool "off" true
          (cls ~recognize_reductions:false src "I" "S" = Some "shared(unsafe)"));
    case "reduction variable used elsewhere is unsafe" (fun () ->
        let src =
          prog
            "      S = 0.0\n      DO I = 1, 10\n        S = S + A(I)\n        B(I) = S\n      ENDDO\n"
            "      REAL A(10), B(10)\n"
        in
        check_bool "mixed" true (cls src "I" "S" = Some "shared(unsafe)"));
    case "read-only scalar is shared safe" (fun () ->
        let src =
          prog "      C = 2.0\n      DO I = 1, 10\n        X = C * I\n      ENDDO\n" ""
        in
        check_bool "safe" true (cls src "I" "C" = Some "shared"));
    case "goto in body downgrades written scalars" (fun () ->
        let src =
          prog
            "      DO I = 1, 10\n        T = 1.0\n        IF (T .GT. 0.5) GOTO 10\n        X = T\n 10     CONTINUE\n      ENDDO\n"
            ""
        in
        check_bool "goto" true (cls src "I" "T" = Some "shared(unsafe)"));
    case "private in IF branches both assigning" (fun () ->
        let src =
          prog
            "      DO I = 1, 10\n        IF (I .GT. 5) THEN\n          T = 1.0\n        ELSE\n          T = 2.0\n        ENDIF\n        X = T\n      ENDDO\n"
            ""
        in
        match cls src "I" "T" with
        | Some ("private" | "private(lastvalue)") -> ()
        | c -> Alcotest.failf "T classified %s" (Option.value ~default:"?" c));
    case "conditional assignment is not private" (fun () ->
        let src =
          prog
            "      T = 0.0\n      DO I = 1, 10\n        IF (I .GT. 5) THEN\n          T = 1.0\n        ENDIF\n        X = T\n      ENDDO\n"
            ""
        in
        check_bool "cond" true (cls src "I" "T" = Some "shared(unsafe)"));
    case "parallelizable and blockers" (fun () ->
        let src =
          prog "      T = 0.0\n      DO I = 1, 10\n        X = T\n        T = 2.0 * I\n      ENDDO\n" ""
        in
        let c = classify src "I" in
        check_bool "not par" false (Varclass.parallelizable c);
        check_bool "T blocks" true (List.mem "T" (Varclass.blockers c)));
    case "aux_inductions finds stride and statement" (fun () ->
        let env =
          env_of (prog "      K = 0\n      DO I = 1, 4\n        K = K + 3\n      ENDDO\n" "")
        in
        let lp = loop_by_iv env "I" in
        match Varclass.aux_inductions env.Dependence.Depenv.ctx lp.Dependence.Loopnest.lstmt with
        | [ ("K", 3, _) ] -> ()
        | _ -> Alcotest.fail "expected K with stride 3");
    case "conditional increment is not aux induction" (fun () ->
        let env =
          env_of
            (prog
               "      K = 0\n      DO I = 1, 4\n        IF (I .GT. 2) THEN\n          K = K + 1\n        ENDIF\n      ENDDO\n"
               "")
        in
        let lp = loop_by_iv env "I" in
        check_int "none" 0
          (List.length (Varclass.aux_inductions env.Dependence.Depenv.ctx lp.Dependence.Loopnest.lstmt)));
  ]

(* ------------------------------------------------------------------ *)
(* The bottom-up walk against the per-loop reference                   *)
(* ------------------------------------------------------------------ *)

let class_equal (a : Varclass.classification) (b : Varclass.classification) =
  match (a, b) with
  | Induction { stride = x }, Induction { stride = y } ->
    Option.equal Symbolic.Linear.equal x y
  | _ -> a = b

let classes_equal =
  List.equal (fun (v, c) (v', c') -> String.equal v v' && class_equal c c')

let render classes =
  String.concat ", "
    (List.map (fun (v, c) -> v ^ " " ^ Varclass.classification_to_string c) classes)

(* The first disagreement on a unit, under either reduction setting:
   the walk over the unit's body (asking [Defuse] itself, and fed the
   facts by preorder position) must find every loop in preorder with
   its body's positions, and give each loop the reference's classes,
   as must the walk over that loop alone. *)
let walk_mismatch ctx cfg liveness (u : Ast.program_unit) =
  let body = u.Ast.body in
  let stmts = Array.of_list (List.rev (Ast.fold_stmts (fun acc s -> s :: acc) [] body)) in
  let facts = Array.map (Defuse.facts ctx) stmts in
  let loops = Dependence.Loopnest.loops (Dependence.Loopnest.build u) in
  List.find_map
    (fun recognize_reductions ->
      let walk = Varclass.classify_nest ~recognize_reductions ~cfg ctx liveness body in
      let fed =
        Varclass.classify_nest ~recognize_reductions ~facts:(Array.get facts) ~cfg ctx
          liveness body
      in
      let sids = List.map (fun (lc : Varclass.loop_classes) -> lc.lc_stmt.Ast.sid) in
      if
        sids walk <> List.map (fun (lp : Dependence.Loopnest.loop) -> lp.lstmt.Ast.sid) loops
        || sids fed <> sids walk
      then Some (u.Ast.uname ^ ": the walk's loops are not the nest's, in preorder")
      else
        List.find_map
          (fun ((lc : Varclass.loop_classes), (lc' : Varclass.loop_classes)) ->
            let loop = lc.lc_stmt in
            let where what =
              Printf.sprintf "%s s%d (%s, reductions %b)" u.Ast.uname loop.Ast.sid what
                recognize_reductions
            in
            let size = Ast.fold_stmts (fun n _ -> n + 1) 0 [ loop ] - 1 in
            if stmts.(lc.lc_first - 1) != loop || lc.lc_stop - lc.lc_first <> size then
              Some (where "body positions")
            else
              let want = Ref_scalar.varclass ~recognize_reductions ~cfg ctx liveness loop in
              List.find_map
                (fun (what, got) ->
                  if classes_equal got want then None
                  else
                    Some
                      (Printf.sprintf "%s: %s, reference %s" (where what) (render got)
                         (render want)))
                [
                  ("walk", Varclass.all lc.lc_classes);
                  ("walk fed facts", Varclass.all lc'.lc_classes);
                  ( "one loop",
                    Varclass.all
                      (Varclass.classify ~recognize_reductions ~cfg ctx liveness loop) );
                ])
          (List.combine walk fed))
    [ true; false ]

let intraprocedural (u : Ast.program_unit) =
  let ctx = Defuse.make (Symbol.build u) u and cfg = Cfg.build u in
  (ctx, cfg, Liveness.analyze ctx cfg, u)

let walk_matches_reference =
  QCheck2.Test.make ~count:60 ~name:"the Varclass walk equals the per-loop reference"
    ~print:Pretty.program_to_string Test_dataflow.gen_goto_program (fun p ->
      List.for_all
        (fun u ->
          let ctx, cfg, liveness, u = intraprocedural u in
          match walk_mismatch ctx cfg liveness u with
          | None -> true
          | Some what -> QCheck2.Test.fail_reportf "classes differ: %s" what)
        p.Ast.punits)

(* Units that put a fact a loop's classes depend on one nesting level
   below the loop, where none of the generated programs puts it: an
   increment's variable redefined in an inner loop or a branch, a
   scalar killed only inside an inner loop (which may run zero times),
   reductions of two operations at different depths, and a GOTO
   inside an inner loop. *)
let nested_programs =
  let unit name body =
    ( name,
      parse
        (Printf.sprintf
           "      SUBROUTINE %s(A, B, N)\n      REAL A(40), B(40)\n%s      END\n" name
           body) )
  in
  [
    unit "AUXLOOP"
      "      K = 0\n      DO I = 1, 10\n        K = K + 1\n        DO J = 1, 5\n          K = J\n        ENDDO\n        A(K) = 1.0\n      ENDDO\n";
    unit "AUXIF"
      "      K = 0\n      DO I = 1, 10\n        K = K + 2\n        IF (I .GT. 5) THEN\n          K = 1\n        ENDIF\n        A(K) = 1.0\n      ENDDO\n";
    unit "INNERKILL"
      "      DO I = 1, 10\n        DO J = 1, N\n          T = A(J)\n        ENDDO\n        B(I) = T\n      ENDDO\n";
    unit "MIXEDRED"
      "      S = 0.0\n      DO I = 1, 10\n        S = S + A(I)\n        DO J = 1, 3\n          S = S * B(J)\n        ENDDO\n      ENDDO\n";
    unit "INNERGOTO"
      "      DO I = 1, 10\n        T = A(I)\n        DO J = 1, 3\n          IF (T .GT. 0.5) GOTO 10\n          B(J) = T\n        ENDDO\n 10     CONTINUE\n      ENDDO\n";
  ]

(* The workloads, the corpus, the stress profiles and the units above,
   under intraprocedural contexts and the interprocedural ones. *)
let walk_matches_reference_programs () =
  List.iter
    (fun (name, (prog : Ast.program)) ->
      let summary = Interproc.Summary.analyze prog in
      List.iter
        (fun u ->
          let env = Interproc.Summary.env_for summary u in
          List.iter
            (fun (ctx, cfg, liveness, u) ->
              Option.iter
                (Alcotest.failf "%s: classes differ from the reference: %s" name)
                (walk_mismatch ctx cfg liveness u))
            [
              intraprocedural u;
              ( env.Dependence.Depenv.ctx,
                env.Dependence.Depenv.cfg,
                env.Dependence.Depenv.liveness,
                u );
            ])
        prog.Ast.punits)
    (Test_dataflow.scalar_programs () @ nested_programs)

let suite =
  suite
  @ [
      case "the Varclass walk equals the reference on the programs"
        walk_matches_reference_programs;
      qcheck_case walk_matches_reference;
    ]
