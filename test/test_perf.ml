open Dependence
open Util

let suite =
  [
    case "bigger loops cost more" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(100), B(10)\n      DO I = 1, 100\n        A(I) = FLOAT(I)\n      ENDDO\n      DO J = 1, 10\n        B(J) = FLOAT(J)\n      ENDDO\n      END\n"
        in
        let big = Perf.Estimator.stmt_cost env (loop_by_iv env "I").Loopnest.lstmt in
        let small = Perf.Estimator.stmt_cost env (loop_by_iv env "J").Loopnest.lstmt in
        check_bool "bigger" true (big.Perf.Estimator.cycles > small.Perf.Estimator.cycles);
        check_bool "exact" true big.Perf.Estimator.exact_trips);
    case "unknown trips flagged approximate" (fun () ->
        let env =
          env_of "      PROGRAM P\n      DO I = 1, N\n        X = I\n      ENDDO\n      END\n"
        in
        let e = Perf.Estimator.stmt_cost env (loop_by_iv env "I").Loopnest.lstmt in
        check_bool "approx" false e.Perf.Estimator.exact_trips);
    case "rank_loops orders by share" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(100), B(10)\n      DO I = 1, 100\n        A(I) = FLOAT(I)\n      ENDDO\n      DO J = 1, 10\n        B(J) = FLOAT(J)\n      ENDDO\n      END\n"
        in
        match Perf.Estimator.rank_loops env with
        | (top, _, share) :: _ ->
          check_string "I first" "I" top.Loopnest.header.Fortran_front.Ast.dvar;
          check_bool "share sane" true (share > 0.5 && share <= 1.0)
        | [] -> Alcotest.fail "no loops ranked");
    case "parallel estimate divides by processors" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(256)\n      PARALLEL DO I = 1, 256\n        A(I) = FLOAT(I)\n      ENDDO\n      END\n"
        in
        let s = Perf.Estimator.predicted_speedup env ~processors:8 in
        check_bool "speedup > 3" true (s > 3.0);
        let s1 = Perf.Estimator.predicted_speedup env ~processors:1 in
        check_bool "one proc no speedup" true (s1 <= 1.05));
    case "estimator agrees with simulator on ranking" (fun () ->
        (* relative ordering of variants: parallel version predicted and
           measured faster *)
        let src_seq =
          "      PROGRAM P\n      REAL A(64)\n      DO I = 1, 64\n        A(I) = FLOAT(I)\n      ENDDO\n      PRINT *, A(1)\n      END\n"
        in
        let src_par =
          "      PROGRAM P\n      REAL A(64)\n      PARALLEL DO I = 1, 64\n        A(I) = FLOAT(I)\n      ENDDO\n      PRINT *, A(1)\n      END\n"
        in
        let est u =
          let env = Depenv.make (Unit_syntax.build (parse_unit u)) in
          (Perf.Estimator.parallel_unit_cost env).Perf.Estimator.cycles
        in
        let sim u = (Sim.Interp.run (parse u)).Sim.Interp.cycles in
        check_bool "estimator prefers parallel" true (est src_par < est src_seq);
        check_bool "simulator agrees" true (sim src_par < sim src_seq));
    case "machine with more processors is faster on parallel code" (fun () ->
        let src =
          "      PROGRAM P\n      REAL A(128)\n      PARALLEL DO I = 1, 128\n        A(I) = FLOAT(I) * 2.0\n      ENDDO\n      END\n"
        in
        let run p =
          (Sim.Interp.run ~machine:(Perf.Machine.with_processors p Perf.Machine.default)
             (parse src)).Sim.Interp.cycles
        in
        check_bool "2 < 1" true (run 2 < run 1);
        check_bool "8 < 2" true (run 8 < run 2));
  ]

let interproc_suite =
  [
    case "callee pricing charges callees" (fun () ->
        let p =
          parse
            "      PROGRAM P\n      DO I = 1, 10\n        CALL WORK\n      ENDDO\n      END\n      SUBROUTINE WORK\n      REAL A(100)\n      DO J = 1, 100\n        A(J) = FLOAT(J) * 2.0\n      ENDDO\n      END\n"
        in
        let engine = Engine.create p in
        let cost =
          Perf.Estimator.callee_costs ~env_of:(fun unit_name ->
              Engine.env engine ~unit_name)
        in
        let main = Option.get (cost "P") and work = Option.get (cost "WORK") in
        check_bool "work nontrivial" true (work > 100.0);
        check_bool "main includes 10 calls" true (main > 10.0 *. work));
    case "an assertion on a callee's trip count reprices it" (fun () ->
        let p =
          parse
            "      PROGRAM P\n      COMMON /C/ N\n      DO I = 1, 10\n        CALL WORK\n      ENDDO\n      END\n      SUBROUTINE WORK\n      COMMON /C/ N\n      REAL A(1000)\n      DO J = 1, N\n        A(J) = FLOAT(J) * 2.0\n      ENDDO\n      END\n"
        in
        let t = Ped.Session.load p ~unit_name:"P" in
        let before = Option.get (Ped.Session.callee_cost t "WORK") in
        ok_exn "assert" (Ped.Session.assert_value t "N" 500);
        let after = Option.get (Ped.Session.callee_cost t "WORK") in
        check_bool "500 trips cost more than the assumed 32" true
          (after > 10.0 *. before);
        let fresh = Ped.Session.load p ~unit_name:"P" in
        ok_exn "assert" (Ped.Session.assert_value fresh "N" 500);
        List.iter
          (fun name ->
            Alcotest.(check (option (float 0.0)))
              (name ^ " as in a fresh session")
              (Ped.Session.callee_cost fresh name)
              (Ped.Session.callee_cost t name))
          [ "P"; "WORK" ]);
    case "session loops pane uses callee costs" (fun () ->
        let w = Option.get (Workloads.by_name "spec77x") in
        let sess =
          Ped.Session.load (Workloads.program w)
            ~unit_name:(Workloads.main_unit w)
        in
        (* the time-step loop (calls COLUMN) must rank far above the
           diagnostics loop *)
        match
          Perf.Estimator.rank_loops
            ~callee_cost:(Ped.Session.callee_cost sess) (Ped.Session.env sess)
        with
        | (top, _, share) :: _ ->
          check_string "STEP ranks first" "STEP"
            top.Dependence.Loopnest.header.Fortran_front.Ast.dvar;
          check_bool "dominant" true (share > 0.5)
        | [] -> Alcotest.fail "no loops");
  ]

let suite = suite @ interproc_suite

let schedule_suite =
  [
    case "cyclic beats block on triangular work" (fun () ->
        (* iteration i does i units of work: block scheduling piles the
           heavy tail onto the last processor *)
        let src =
          "      PROGRAM P\n      REAL A(64,64)\n      PARALLEL DO I = 1, 64\n        DO J = 1, I\n          A(I,J) = FLOAT(I + J)\n        ENDDO\n      ENDDO\n      PRINT *, A(64,1)\n      END\n"
        in
        let run sched =
          (Sim.Interp.run
             ~machine:(Perf.Machine.with_schedule sched Perf.Machine.default)
             (parse src)).Sim.Interp.cycles
        in
        let block = run Perf.Machine.Block in
        let cyclic = run Perf.Machine.Cyclic in
        check_bool "cyclic faster" true (cyclic < block);
        (* and rectangular work is indifferent (within one iteration) *)
        let src2 =
          "      PROGRAM P\n      REAL A(64)\n      PARALLEL DO I = 1, 64\n        A(I) = FLOAT(I)\n      ENDDO\n      PRINT *, A(64)\n      END\n"
        in
        let r sched =
          (Sim.Interp.run
             ~machine:(Perf.Machine.with_schedule sched Perf.Machine.default)
             (parse src2)).Sim.Interp.cycles
        in
        check_bool "same on uniform work" true
          (Float.abs (r Perf.Machine.Block -. r Perf.Machine.Cyclic) < 1.0));
  ]

let suite = suite @ schedule_suite
