(* lib/perfdebug: span profiles, the five diagnosis rules, and the
   driver.  Detector thresholds are ratios of same-run measurements,
   so the synthetic-profile cases here are exact; the end-to-end
   cases only assert properties that hold on any machine (including
   an oversubscribed single core). *)

open Fortran_front
open Util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let near what expect got =
  Alcotest.(check (float 1e-9)) what expect got

(* --- span fixtures -------------------------------------------------- *)

let sp ?(args = []) name t0 t1 =
  {
    Telemetry.sp_name = name;
    sp_path = [ name ];
    sp_tid = 0;
    sp_lane = None;
    sp_t0 = Int64.of_int t0;
    sp_t1 = Int64.of_int t1;
    sp_args = args;
  }

let profile_of ?(workers = 2) ?fallback spans =
  Perfdebug.Profile.of_spans ~workers ?fallback_run_ns:fallback spans

(* --- profile fixtures (for the detectors) --------------------------- *)

let lp ?(sid = 1) ?(execs = 1) ?(trip = 64) ?(span = 1000.0)
    ?(busy = [| 450.0; 450.0 |]) ?(copyin = 0.0) ?(join = 0.0)
    ?(sched = "chunk") () =
  {
    Perfdebug.Profile.lp_sid = sid;
    lp_execs = execs;
    lp_trip_total = trip;
    lp_span_ns = span;
    lp_busy_ns = busy;
    lp_copyin_ns = copyin;
    lp_join_ns = join;
    lp_sched = sched;
  }

let prof ?(workers = 2) ?(run = 1000.0) loops =
  { Perfdebug.Profile.workers; run_ns = run; loops }

let detect ?static ?speedup profile =
  Perfdebug.Detect.run ~profile
    ~static:(Option.value ~default:[] static)
    ~fork_join_cycles:200.0 ?speedup ()

let kinds_of findings =
  List.sort_uniq compare
    (List.map (fun f -> f.Perfdebug.Detect.f_kind) findings)

let shape ?(predicted = 1.5) ?(privates = 0) ?(arrays = 0) ?(reductions = 0)
    () =
  {
    Perfdebug.Detect.st_predicted = predicted;
    st_privates = privates;
    st_arrays = arrays;
    st_reductions = reductions;
  }

(* --- program fixtures (for the driver) ------------------------------ *)

let program src = Ast.renumber_program (parse src)

(* Mark exactly the DO loops over [iv] PARALLEL. *)
let parallelize_iv iv (prog : Ast.program) : Ast.program =
  let rewrite (u : Ast.program_unit) =
    {
      u with
      Ast.body =
        Ast.map_stmts
          (fun (s : Ast.stmt) ->
            match s.Ast.node with
            | Ast.Do (h, body) when String.equal h.Ast.dvar iv ->
              { s with
                Ast.node = Ast.Do ({ h with Ast.parallel = true }, body) }
            | _ -> s)
          u.Ast.body;
    }
  in
  { Ast.punits = List.map rewrite prog.Ast.punits }

(* A dominant first-order recurrence: nothing to parallelize. *)
let serial_src =
  "      PROGRAM SER\n\
   \      INTEGER N\n\
   \      PARAMETER (N = 2000)\n\
   \      REAL A(N)\n\
   \      INTEGER I\n\
   \      A(1) = 1.0\n\
   \      DO I = 2, N\n\
   \        A(I) = A(I-1) * 0.9 + FLOAT(I)\n\
   \      ENDDO\n\
   \      PRINT *, A(N)\n\
   \      END\n"

(* A tiny parallel loop forked from a serial outer loop: fork/join
   overhead dominates by construction. *)
let finegrain_src =
  "      PROGRAM FG\n\
   \      INTEGER N, R\n\
   \      PARAMETER (N = 8, R = 40)\n\
   \      REAL A(N)\n\
   \      INTEGER I, K\n\
   \      DO K = 1, R\n\
   \        DO I = 1, N\n\
   \          A(I) = A(I) + 1.0\n\
   \        ENDDO\n\
   \      ENDDO\n\
   \      PRINT *, A(1)\n\
   \      END\n"

let suite =
  [
    (* ---------------- Profile ---------------- *)
    case "profile: spans bucket by loop label" (fun () ->
        let spans =
          [
            sp "exec.run" 0 10_000;
            sp "exec.parallel-loop"
              ~args:[ ("loop", "s5"); ("trip", "8") ]
              1_000 7_000;
            sp "exec.copy-in" ~args:[ ("loop", "s5"); ("worker", "0") ] 1_100
              1_300;
            sp "exec.copy-in" ~args:[ ("loop", "s5"); ("worker", "1") ] 1_100
              1_400;
            sp "pool.chunk"
              ~args:[ ("worker", "0"); ("label", "s5") ]
              1_100 3_000;
            sp "pool.chunk"
              ~args:[ ("worker", "1"); ("label", "s5") ]
              1_100 6_000;
            sp "exec.join" ~args:[ ("loop", "s5") ] 6_200 7_000;
            (* unlabeled pool job: analyzer fan-out, not a loop *)
            sp "pool.chunk" ~args:[ ("worker", "0") ] 0 500;
            (* out-of-range worker index must not crash or count *)
            sp "pool.chunk"
              ~args:[ ("worker", "7"); ("label", "s9") ]
              0 100;
          ]
        in
        let p = profile_of spans in
        near "run_ns" 10_000.0 p.Perfdebug.Profile.run_ns;
        let l = Option.get (Perfdebug.Profile.find p 5) in
        check_int "execs" 1 l.Perfdebug.Profile.lp_execs;
        check_int "trip" 8 l.Perfdebug.Profile.lp_trip_total;
        near "span" 6_000.0 l.Perfdebug.Profile.lp_span_ns;
        near "busy w0" 1_900.0 l.Perfdebug.Profile.lp_busy_ns.(0);
        near "busy w1" 4_900.0 l.Perfdebug.Profile.lp_busy_ns.(1);
        near "copyin" 500.0 l.Perfdebug.Profile.lp_copyin_ns;
        near "join" 800.0 l.Perfdebug.Profile.lp_join_ns;
        near "busy_max" 4_900.0 (Perfdebug.Profile.busy_max l);
        near "busy_mean" 3_400.0 (Perfdebug.Profile.busy_mean l);
        near "coverage" 0.6 (Perfdebug.Profile.parallel_coverage p);
        let s9 = Option.get (Perfdebug.Profile.find p 9) in
        near "rogue worker ignored" 0.0 (Perfdebug.Profile.busy_total s9));
    case "profile: repeated executions accumulate; self sched sticks"
      (fun () ->
        let exec t0 t1 =
          sp "exec.parallel-loop"
            ~args:[ ("loop", "s3"); ("trip", "10") ]
            t0 t1
        in
        let p =
          profile_of
            [
              sp "exec.run" 0 10_000;
              exec 0 2_000;
              exec 2_000 5_000;
              sp "pool.self"
                ~args:[ ("worker", "0"); ("label", "s3") ]
                100 900;
            ]
        in
        let l = Option.get (Perfdebug.Profile.find p 3) in
        check_int "execs" 2 l.Perfdebug.Profile.lp_execs;
        check_int "trips summed" 20 l.Perfdebug.Profile.lp_trip_total;
        near "span summed" 5_000.0 l.Perfdebug.Profile.lp_span_ns;
        check_bool "self-scheduled" true
          (String.equal l.Perfdebug.Profile.lp_sched "self"));
    case "profile: compiled runs fall back to labeled pool spans"
      (fun () ->
        let p =
          profile_of ~fallback:8_000.0
            [
              sp "pool.run" ~args:[ ("label", "s3"); ("trip", "10") ] 0 5_000;
              sp "pool.chunk"
                ~args:[ ("worker", "0"); ("label", "s3") ]
                0 2_400;
              sp "pool.chunk"
                ~args:[ ("worker", "1"); ("label", "s3") ]
                0 2_500;
            ]
        in
        near "fallback run_ns" 8_000.0 p.Perfdebug.Profile.run_ns;
        let l = Option.get (Perfdebug.Profile.find p 3) in
        check_int "execs from pool.run" 1 l.Perfdebug.Profile.lp_execs;
        check_int "trip from pool.run" 10 l.Perfdebug.Profile.lp_trip_total;
        near "span from pool.run" 5_000.0 l.Perfdebug.Profile.lp_span_ns;
        near "coverage" 0.625 (Perfdebug.Profile.parallel_coverage p));
    (* ---------------- Detectors ---------------- *)
    case "detect: a balanced coarse loop is silent" (fun () ->
        let p = prof ~run:540.0 [ lp ~busy:[| 490.0; 500.0 |] ~span:520.0 () ] in
        check_bool "no findings" true (detect p = []));
    case "detect: imbalance on skewed busy times" (fun () ->
        let p = prof [ lp ~busy:[| 900.0; 100.0 |] () ] in
        match detect p with
        | [ f ] ->
          check_bool "kind" true
            (f.Perfdebug.Detect.f_kind = Perfdebug.Detect.Imbalance);
          check_bool "names the loop" true
            (f.Perfdebug.Detect.f_loop = Some 1);
          check_bool "chunk remedy suggests self-scheduling" true
            (contains ~needle:"self" f.Perfdebug.Detect.f_remedy)
        | fs ->
          Alcotest.failf "expected exactly the imbalance finding, got %d"
            (List.length fs));
    case "detect: imbalance under self-scheduling suggests strip-mining"
      (fun () ->
        let p = prof [ lp ~busy:[| 900.0; 100.0 |] ~sched:"self" () ] in
        match detect p with
        | [ f ] ->
          check_bool "strip-mine remedy" true
            (contains ~needle:"strip-mine" f.Perfdebug.Detect.f_remedy)
        | _ -> Alcotest.fail "expected one finding");
    case "detect: granularity on dominant fork/join overhead" (fun () ->
        (* busy accounts for 100 of the 1000ns span: 90% overhead *)
        let p = prof [ lp ~busy:[| 100.0; 100.0 |] () ] in
        let fs = detect p in
        check_bool "granularity fires" true
          (List.mem Perfdebug.Detect.Granularity (kinds_of fs));
        let f =
          List.find
            (fun f ->
              f.Perfdebug.Detect.f_kind = Perfdebug.Detect.Granularity)
            fs
        in
        check_bool "cites the machine model's fork price" true
          (List.exists
             (contains ~needle:"200 cycles")
             f.Perfdebug.Detect.f_evidence);
        check_bool "one fork: strip-mine, not interchange" true
          (contains ~needle:"strip-mine" f.Perfdebug.Detect.f_remedy));
    case "detect: repeated forks suggest interchange" (fun () ->
        let p =
          prof [ lp ~execs:10 ~trip:640 ~busy:[| 100.0; 100.0 |] () ]
        in
        let f =
          List.find
            (fun f ->
              f.Perfdebug.Detect.f_kind = Perfdebug.Detect.Granularity)
            (detect p)
        in
        check_bool "interchange remedy" true
          (contains ~needle:"interchange" f.Perfdebug.Detect.f_remedy));
    case "detect: starved workers fire granularity on trip < workers"
      (fun () ->
        (* overhead is only 20%, but a trip of 1 cannot feed 2 workers *)
        let p = prof [ lp ~trip:1 ~busy:[| 800.0; 0.0 |] () ] in
        check_bool "granularity fires" true
          (List.mem Perfdebug.Detect.Granularity (kinds_of (detect p))));
    case "detect: privatization cost needs a planned shape" (fun () ->
        let heavy = lp ~busy:[| 300.0; 250.0 |] ~copyin:300.0 ~join:150.0 () in
        let p = prof [ heavy ] in
        (* planned arrays: fires, with the array remedy *)
        let fs = detect ~static:[ (1, shape ~arrays:1 ()) ] p in
        check_bool "fires with arrays" true
          (List.mem Perfdebug.Detect.Privatization (kinds_of fs));
        let f =
          List.find
            (fun f ->
              f.Perfdebug.Detect.f_kind = Perfdebug.Detect.Privatization)
            fs
        in
        check_bool "array remedy" true
          (contains ~needle:"copied per worker" f.Perfdebug.Detect.f_remedy);
        (* an empty planned shape silences it despite the span cost *)
        let fs0 = detect ~static:[ (1, shape ()) ] p in
        check_bool "silent with empty shape" false
          (List.mem Perfdebug.Detect.Privatization (kinds_of fs0));
        (* no static info at all: the measured cost alone decides *)
        let fs1 = detect p in
        check_bool "fires without static info" true
          (List.mem Perfdebug.Detect.Privatization (kinds_of fs1)));
    case "detect: loops below the share floor are ignored" (fun () ->
        let p =
          prof ~run:100_000.0 [ lp ~busy:[| 900.0; 100.0 |] () ]
        in
        (* 1% of the run: grossly imbalanced yet not worth reporting *)
        check_bool "no findings" true
          (List.for_all
             (fun f -> f.Perfdebug.Detect.f_kind <> Perfdebug.Detect.Imbalance)
             (detect p)));
    case "detect: serial fraction from parallel coverage" (fun () ->
        let p = prof [ lp ~span:300.0 ~busy:[| 290.0; 295.0 |] () ] in
        match detect p with
        | [ f ] ->
          check_bool "kind" true
            (f.Perfdebug.Detect.f_kind = Perfdebug.Detect.Serial_fraction);
          check_bool "whole-run finding" true
            (f.Perfdebug.Detect.f_loop = None);
          check_bool "cites the Amdahl bound" true
            (List.exists
               (contains ~needle:"Amdahl")
               f.Perfdebug.Detect.f_evidence)
        | fs ->
          Alcotest.failf "expected exactly the serial finding, got %d"
            (List.length fs));
    case "detect: prediction mismatch only on real overprediction"
      (fun () ->
        let p = prof [ lp ~busy:[| 490.0; 500.0 |] ~span:520.0 () ] in
        let fires speedup =
          List.mem Perfdebug.Detect.Prediction_mismatch
            (kinds_of (detect ~speedup p))
        in
        check_bool "overpredicted 2.5x" true (fires (0.8, 2.0));
        check_bool "promise below the floor" false (fires (0.8, 1.2));
        check_bool "underprediction is not a defect" false (fires (4.0, 2.0));
        check_bool "agreement" false (fires (1.8, 2.0));
        let f =
          List.find
            (fun f ->
              f.Perfdebug.Detect.f_kind
              = Perfdebug.Detect.Prediction_mismatch)
            (detect ~speedup:(0.8, 2.0) p)
        in
        check_bool "points at --calibrate" true
          (contains ~needle:"--calibrate" f.Perfdebug.Detect.f_remedy));
    case "detect: findings rank by time at stake" (fun () ->
        let p =
          prof ~run:10_000.0
            [
              lp ~sid:1 ~span:1_000.0 ~busy:[| 900.0; 100.0 |] ();
              lp ~sid:2 ~span:8_000.0 ~busy:[| 7200.0; 800.0 |] ();
            ]
        in
        match detect p with
        | first :: _ ->
          check_bool "big loop first" true
            (first.Perfdebug.Detect.f_loop = Some 2)
        | [] -> Alcotest.fail "expected findings");
    (* ---------------- Driver ---------------- *)
    case "driver: static_of keys estimator promises by loop sid" (fun () ->
        let prog = parallelize_iv "I" (program finegrain_src) in
        let summary = Interproc.Summary.analyze prog in
        let static = Perfdebug.Driver.static_of ~summary ~processors:2 prog in
        check_int "one parallel loop" 1 (List.length static);
        let _, st = List.hd static in
        check_bool "predicted positive" true
          (st.Perfdebug.Detect.st_predicted > 0.0));
    case "driver: one diagnosis builds one summary" (fun () ->
        (* the plans, the per-loop promises and the whole-unit promise
           all read one interprocedural summary of the program *)
        let prog = parallelize_iv "I" (program finegrain_src) in
        let tel = Telemetry.make ~record_spans:true () in
        let prev = Telemetry.default () in
        Fun.protect ~finally:(fun () -> Telemetry.set_default prev) @@ fun () ->
        Telemetry.set_default tel;
        ignore
          (Perfdebug.Driver.analyze ~domains:2 ~schedule:Runtime.Pool.Chunk ~seq_wall:0.0
             ~par_wall:0.0 prog []);
        check_int "interproc.callgraph spans" 1
          (List.length
             (List.filter
                (fun (r : Telemetry.span_record) -> r.Telemetry.sp_name = "interproc.callgraph")
                (Telemetry.spans tel))));
    case "driver: a serial program diagnoses as serial fraction" (fun () ->
        let d = Perfdebug.Driver.diagnose ~domains:2 (program serial_src) in
        check_bool "serial fraction fires" true
          (List.mem Perfdebug.Detect.Serial_fraction
             (Perfdebug.Driver.kinds d));
        let r = Perfdebug.Driver.render d in
        check_bool "summary header" true
          (contains ~needle:"performance diagnosis:" r);
        check_bool "coverage line" true
          (contains ~needle:"parallel coverage" r));
    case "driver: fine-grained forks diagnose as granularity" (fun () ->
        let prog = parallelize_iv "I" (program finegrain_src) in
        let d = Perfdebug.Driver.diagnose ~domains:2 prog in
        check_bool "granularity fires" true
          (List.mem Perfdebug.Detect.Granularity (Perfdebug.Driver.kinds d)));
    case "driver: focused render names a clean loop" (fun () ->
        let d = Perfdebug.Driver.diagnose ~domains:2 (program serial_src) in
        (* no findings attach to s999, so the focused form says so *)
        let r = Perfdebug.Driver.render ~focus:999 d in
        check_bool "clean loop message" true
          (contains ~needle:"loop s999: no performance problems detected" r));
    case "driver: diagnosis kinds are deterministic across runs" (fun () ->
        (* the satellite determinism contract: same (workload, domains)
           twice gives the same kind set.  Both kernels sit far from
           every threshold in a direction timing noise can't flip:
           the serial program has zero parallel coverage; the
           fine-grained one, fork overhead orders beyond its body
           (imbalance is disabled there — with microsecond busy times
           on an oversubscribed host, worker spread is real noise). *)
        let twice ?config prog =
          let k () =
            Perfdebug.Driver.kinds
              (Perfdebug.Driver.diagnose ?config ~domains:2 prog)
          in
          (k (), k ())
        in
        let k1, k2 = twice (program serial_src) in
        check_bool "serial kinds repeat" true (k1 = k2);
        check_bool "serial fraction present" true
          (List.mem Perfdebug.Detect.Serial_fraction k1);
        let nimb =
          { Perfdebug.Detect.default with
            Perfdebug.Detect.imbalance_ratio = infinity }
        in
        let prog = parallelize_iv "I" (program finegrain_src) in
        let g1, g2 = twice ~config:nimb prog in
        check_bool "fine-grained kinds repeat" true (g1 = g2);
        check_bool "granularity present" true
          (List.mem Perfdebug.Detect.Granularity g1));
    (* ---------------- Perf.Compare ---------------- *)
    case "compare: verdicts split at the tolerance band" (fun () ->
        let v ~predicted ~measured =
          (Perf.Compare.compare_speedup ~predicted ~measured ())
            .Perf.Compare.verdict
        in
        check_bool "agree" true (v ~predicted:1.8 ~measured:1.5 = Perf.Compare.Agree);
        check_bool "over" true
          (v ~predicted:4.0 ~measured:1.0 = Perf.Compare.Overpredicted);
        check_bool "under" true
          (v ~predicted:1.0 ~measured:4.0 = Perf.Compare.Underpredicted);
        (* degenerate inputs clamp instead of dividing by zero *)
        check_bool "zero measured" true
          (v ~predicted:2.0 ~measured:0.0 = Perf.Compare.Overpredicted));
  ]
