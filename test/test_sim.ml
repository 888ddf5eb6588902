open Util

let suite =
  [
    case "arithmetic and intrinsics" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      X = SQRT(16.0) + ABS(-3.0) + MAX(1.0, 2.0)\n      K = MOD(17, 5)\n      PRINT *, X, K\n      END\n"
        in
        check_string "out" "9 2" (List.hd out));
    case "integer division truncates" (fun () ->
        let out = run_output "      PROGRAM P\n      K = 7 / 2\n      PRINT *, K\n      END\n" in
        check_string "3" "3" (List.hd out));
    case "real to integer assignment truncates" (fun () ->
        let out = run_output "      PROGRAM P\n      K = 3.9\n      PRINT *, K\n      END\n" in
        check_string "3" "3" (List.hd out));
    case "do loop trip semantics" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      K = 0\n      DO I = 1, 10, 3\n        K = K + 1\n      ENDDO\n      PRINT *, K\n      END\n"
        in
        check_string "4 trips" "4" (List.hd out));
    case "zero-trip loop body skipped" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      K = 5\n      DO I = 3, 1\n        K = 0\n      ENDDO\n      PRINT *, K\n      END\n"
        in
        check_string "5" "5" (List.hd out));
    case "negative step loop" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      K = 0\n      DO I = 10, 1, -2\n        K = K + I\n      ENDDO\n      PRINT *, K\n      END\n"
        in
        check_string "30" "30" (List.hd out));
    case "goto forward and backward" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      K = 0\n 10   K = K + 1\n      IF (K .LT. 3) GOTO 10\n      PRINT *, K\n      END\n"
        in
        check_string "3" "3" (List.hd out));
    case "by-reference argument passing" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      X = 1.0\n      CALL BUMP(X)\n      PRINT *, X\n      END\n      SUBROUTINE BUMP(Y)\n      Y = Y + 1.0\n      END\n"
        in
        check_string "2" "2" (List.hd out));
    case "array element passed by reference" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      REAL A(3)\n      A(2) = 5.0\n      CALL BUMP(A(2))\n      PRINT *, A(2)\n      END\n      SUBROUTINE BUMP(Y)\n      Y = Y + 1.0\n      END\n"
        in
        check_string "6" "6" (List.hd out));
    case "expression argument is a temporary" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      X = 1.0\n      CALL BUMP(X + 0.0)\n      PRINT *, X\n      END\n      SUBROUTINE BUMP(Y)\n      Y = Y + 1.0\n      END\n"
        in
        check_string "1" "1" (List.hd out));
    case "adjustable array reshaping across call" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      REAL A(2,3)\n      INTEGER I, J\n      DO I = 1, 2\n        DO J = 1, 3\n          A(I,J) = FLOAT(10*I + J)\n        ENDDO\n      ENDDO\n      CALL ROWS(A, 2, 3)\n      END\n      SUBROUTINE ROWS(B, N, M)\n      INTEGER N, M\n      REAL B(N,M)\n      PRINT *, B(2,1), B(1,3)\n      END\n"
        in
        check_string "column major" "21 13" (List.hd out));
    case "common storage shared between units" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      COMMON /G/ Q\n      Q = 2.5\n      CALL S\n      PRINT *, Q\n      END\n      SUBROUTINE S\n      COMMON /G/ Q\n      Q = Q * 2.0\n      END\n"
        in
        check_string "5" "5" (List.hd out));
    case "function call returns result" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      X = TWICE(4.0) + 1.0\n      PRINT *, X\n      END\n      REAL FUNCTION TWICE(Y)\n      TWICE = 2.0 * Y\n      END\n"
        in
        check_string "9" "9" (List.hd out));
    case "lower-bound arrays index correctly" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      REAL A(0:4)\n      A(0) = 1.5\n      A(4) = 2.5\n      PRINT *, A(0) + A(4)\n      END\n"
        in
        check_string "4" "4" (List.hd out));
    case "out-of-bounds raises" (fun () ->
        match
          run_output "      PROGRAM P\n      REAL A(3)\n      A(9) = 1.0\n      END\n"
        with
        | exception Sim.Interp.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected Runtime_error");
    case "statement budget guards runaways" (fun () ->
        match
          Sim.Interp.run ~max_steps:100
            (parse "      PROGRAM P\n 10   K = K + 1\n      GOTO 10\n      END\n")
        with
        | exception Sim.Interp.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected budget exhaustion");
    case "parallel clock beats sequential on a parallel loop" (fun () ->
        let src =
          "      PROGRAM P\n      REAL A(64)\n      PARALLEL DO I = 1, 64\n        A(I) = FLOAT(I) * 2.0\n      ENDDO\n      PRINT *, A(64)\n      END\n"
        in
        let seq = Sim.Interp.run ~honor_parallel:false (parse src) in
        let par = Sim.Interp.run ~honor_parallel:true (parse src) in
        check_bool "faster" true (par.Sim.Interp.cycles < seq.Sim.Interp.cycles);
        check_bool "same output" true
          (Sim.Interp.outputs_match seq.Sim.Interp.output par.Sim.Interp.output));
    case "parallel order does not change a clean loop" (fun () ->
        let src =
          "      PROGRAM P\n      REAL A(32)\n      PARALLEL DO I = 1, 32\n        A(I) = FLOAT(I)\n      ENDDO\n      PRINT *, A(1), A(32)\n      END\n"
        in
        let a = Sim.Interp.run ~par_order:Sim.Interp.Seq (parse src) in
        let b = Sim.Interp.run ~par_order:Sim.Interp.Reverse (parse src) in
        let c = Sim.Interp.run ~par_order:(Sim.Interp.Shuffled 42) (parse src) in
        check_bool "reverse same" true
          (Sim.Interp.stores_match a.Sim.Interp.final_store b.Sim.Interp.final_store);
        check_bool "shuffle same" true
          (Sim.Interp.stores_match a.Sim.Interp.final_store c.Sim.Interp.final_store));
    case "bad parallelization detected by reordering" (fun () ->
        (* a true recurrence marked parallel: reversed order differs *)
        let src =
          "      PROGRAM P\n      REAL A(16)\n      A(1) = 1.0\n      PARALLEL DO I = 2, 16\n        A(I) = A(I-1) + 1.0\n      ENDDO\n      PRINT *, A(16)\n      END\n"
        in
        let a = Sim.Interp.run ~par_order:Sim.Interp.Seq (parse src) in
        let b = Sim.Interp.run ~par_order:Sim.Interp.Reverse (parse src) in
        check_bool "differs" false
          (Sim.Interp.outputs_match a.Sim.Interp.output b.Sim.Interp.output));
    case "inner parallel loops run sequentially inside outer" (fun () ->
        let src =
          "      PROGRAM P\n      REAL A(8,8)\n      PARALLEL DO I = 1, 8\n        PARALLEL DO J = 1, 8\n          A(I,J) = FLOAT(I*J)\n        ENDDO\n      ENDDO\n      PRINT *, A(8,8)\n      END\n"
        in
        let o = Sim.Interp.run (parse src) in
        check_string "64" "64" (List.hd o.Sim.Interp.output));
    case "workloads run under all parallel orders after auto-parallelization"
      (fun () ->
        List.iter
          (fun (w : Workloads.t) ->
            (* parallelize everything the analysis allows, then check
               order independence *)
            let sess =
              Ped.Session.load (Workloads.program w)
                ~unit_name:(Workloads.main_unit w)
            in
            ignore (Ped.Session.parallelize_safe_loops sess);
            let p = Ped.Session.program sess in
            let a = Sim.Interp.run ~par_order:Sim.Interp.Seq p in
            let b = Sim.Interp.run ~par_order:(Sim.Interp.Shuffled 7) p in
            check_bool (w.Workloads.name ^ " order independent") true
              (Sim.Interp.outputs_match ~tol:1e-4 a.Sim.Interp.output
                 b.Sim.Interp.output))
          Workloads.all);
  ]

let data_suite =
  [
    case "DATA initializes but does not make a constant" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      REAL X\n      DATA X /2.5/\n      PRINT *, X\n      X = X + 1.0\n      PRINT *, X\n      END\n"
        in
        check_string "initial" "2.5" (List.nth out 0);
        check_string "reassigned" "3.5" (List.nth out 1));
    case "DATA variable is not constant-folded after reassignment" (fun () ->
        (* K = 3 via DATA, then K = 4: dependence analysis must not use 3 *)
        let u =
          parse_unit
            "      PROGRAM P\n      REAL A(40)\n      INTEGER K\n      DATA K /20/\n      K = 1\n      DO I = 1, 10\n        A(I) = A(I+K)\n      ENDDO\n      END\n"
        in
        let env = Dependence.Depenv.make (Dependence.Unit_syntax.build u) in
        let ddg = Dependence.Ddg.compute env in
        (* with K=20 the loop would be independent; with K=1 it is a real
           dependence — constant propagation must find K=1 and keep it *)
        check_bool "carried dep present" false
          (Dependence.Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
  ]

let suite = suite @ data_suite

let more_interp =
  [
    case "logical IF controls a CALL" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      X = 0.0\n      IF (X .LT. 1.0) CALL BUMP(X)\n      IF (X .GT. 5.0) CALL BUMP(X)\n      PRINT *, X\n      END\n      SUBROUTINE BUMP(Y)\n      Y = Y + 1.0\n      END\n"
        in
        check_string "1" "1" (List.hd out));
    case "elseif chain takes the first true branch" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      K = 7\n      IF (K .LT. 5) THEN\n        M = 1\n      ELSE IF (K .LT. 10) THEN\n        M = 2\n      ELSE IF (K .LT. 20) THEN\n        M = 3\n      ELSE\n        M = 4\n      ENDIF\n      PRINT *, M\n      END\n"
        in
        check_string "2" "2" (List.hd out));
    case "function calls a function" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      X = OUTERF(3.0)\n      PRINT *, X\n      END\n      REAL FUNCTION OUTERF(Y)\n      OUTERF = INNERF(Y) + 1.0\n      END\n      REAL FUNCTION INNERF(Z)\n      INNERF = Z * 2.0\n      END\n"
        in
        check_string "7" "7" (List.hd out));
    case "MOD with negative operand matches Fortran" (fun () ->
        let out =
          run_output "      PROGRAM P\n      K = MOD(-7, 3)\n      PRINT *, K\n      END\n"
        in
        check_string "-1" "-1" (List.hd out));
    case "SIGN intrinsic" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      X = SIGN(2.5, -1.0)\n      K = SIGN(4, 1)\n      PRINT *, X, K\n      END\n"
        in
        check_string "-2.5 4" "-2.5 4" (List.hd out));
    case "nint rounds" (fun () ->
        let out =
          run_output "      PROGRAM P\n      K = NINT(2.6)\n      PRINT *, K\n      END\n"
        in
        check_string "3" "3" (List.hd out));
    case "DO variable after completion is first failing value" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      DO I = 2, 10, 3\n        K = I\n      ENDDO\n      PRINT *, I\n      END\n"
        in
        check_string "11" "11" (List.hd out));
    case "GOTO exits a loop, variable keeps its value" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      DO I = 1, 10\n        IF (I .EQ. 4) GOTO 50\n      ENDDO\n 50   PRINT *, I\n      END\n"
        in
        check_string "4" "4" (List.hd out));
    case "recursion is rejected" (fun () ->
        match
          run_output
            "      PROGRAM P\n      CALL LOOPY\n      END\n      SUBROUTINE LOOPY\n      CALL LOOPY\n      END\n"
        with
        | exception Sim.Interp.Runtime_error _ -> ()
        | _ -> Alcotest.fail "expected recursion error");
    case "STOP inside a callee ends the program" (fun () ->
        let out =
          run_output
            "      PROGRAM P\n      PRINT *, 1\n      CALL HALT\n      PRINT *, 2\n      END\n      SUBROUTINE HALT\n      STOP\n      END\n"
        in
        check_int "one line" 1 (List.length out));
  ]

let suite = suite @ more_interp

(* What the evaluator only finds out by running a statement: a
   statement that cannot execute fails when, and only when, it runs. *)
let run_error src =
  match run_output src with
  | exception Sim.Interp.Runtime_error m -> Some m
  | _ -> None

let lazy_suite =
  [
    case "an array used as a scalar fails only when executed" (fun () ->
        let src taken =
          Printf.sprintf
            "      PROGRAM P\n      REAL A(3)\n      K = 1\n      IF (K .EQ. %d) X = A + 1.0\n      PRINT *, K\n      END\n"
            (if taken then 1 else 2)
        in
        check_bool "not taken" true (run_error (src false) = None);
        check_bool "taken" true
          (run_error (src true) = Some "array A used as a scalar value"));
    case "a subroutine used as a function fails only when executed" (fun () ->
        let src taken =
          Printf.sprintf
            "      PROGRAM P\n      X = 1.0\n      CALL F(X)\n      IF (X .EQ. %d.0) Y = F(1.0)\n      PRINT *, X\n      END\n      SUBROUTINE F(Z)\n      Z = Z + 1.0\n      END\n"
            (if taken then 2 else 3)
        in
        check_bool "not taken" true (run_error (src false) = None);
        check_bool "taken" true (run_error (src true) = Some "cannot evaluate F(...)"));
    case "an unknown function fails only when executed" (fun () ->
        let src taken =
          Printf.sprintf
            "      PROGRAM P\n      K = 1\n      IF (K .EQ. %d) X = G(1.0)\n      PRINT *, K\n      END\n"
            (if taken then 1 else 2)
        in
        check_bool "not taken" true (run_error (src false) = None);
        check_bool "taken" true
          (run_error (src true)
          = Some "unknown function G (external functions must be supplied)"));
    case "final store: every scalar the main unit names has storage" (fun () ->
        (* undeclared Q is never assigned, yet has storage like K and X:
           storage comes with the unit's frame, not with a first use *)
        let o =
          Sim.Interp.run
            (parse
               "      PROGRAM P\n      K = 1\n      IF (K .EQ. 2) Q = 1.0\n      X = 2.0\n      PRINT *, K\n      END\n")
        in
        check_bool "store" true
          (o.Sim.Interp.final_store = [ ("K", [ 1.0 ]); ("Q", [ 0.0 ]); ("X", [ 2.0 ]) ]));
  ]

let suite = suite @ lazy_suite
