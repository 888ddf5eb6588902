(* The multicore runtime: domain pool, parallel execution vs the
   sequential simulator, the shadow-memory dependence validator, and
   machine-model calibration. *)

open Fortran_front
open Util

(* Auto-parallelize every unit of a workload (assertion script first)
   — the same pipeline ped --execute uses. *)
let parallelized (w : Workloads.t) =
  let sess =
    Ped.Session.load (Workloads.program w) ~unit_name:(Workloads.main_unit w)
  in
  List.iter
    (fun cmd -> ignore (Ped.Command.run sess cmd))
    w.Workloads.assertion_script;
  ignore (Ped.Session.parallelize_safe_loops sess);
  Ped.Session.program sess

let seq_reference program = Sim.Interp.run ~honor_parallel:false program

let check_matches ?(exact = false) label program ~domains ~schedule =
  let seq = seq_reference program in
  let o = Runtime.Exec.run ~domains ~schedule program in
  if exact then begin
    check_bool (label ^ ": output identical") true
      (o.Runtime.Exec.output = seq.Sim.Interp.output);
    check_bool (label ^ ": store identical") true
      (o.Runtime.Exec.final_store = seq.Sim.Interp.final_store)
  end
  else begin
    (* printed values carry 6 significant digits; reduction
       reassociation across domains can flip the last digit *)
    check_bool (label ^ ": output matches") true
      (Sim.Interp.outputs_match ~tol:1e-4 o.Runtime.Exec.output
         seq.Sim.Interp.output);
    check_bool (label ^ ": store matches") true
      (Sim.Interp.stores_match o.Runtime.Exec.final_store
         seq.Sim.Interp.final_store)
  end

(* An elementwise kernel with no reductions: every float operation
   happens at the same iteration with the same operands regardless of
   scheduling, so even multi-domain runs must be bit-identical. *)
let elementwise_src =
  {|
      PROGRAM BITS
      INTEGER N
      PARAMETER (N = 40)
      REAL A(N), B(N)
      INTEGER I
      DO I = 1, N
        A(I) = FLOAT(I) * 0.3
        B(I) = FLOAT(N - I) * 0.7
      ENDDO
      DO I = 1, N
        A(I) = A(I) * 1.1 + B(I) * 0.9 + SQRT(FLOAT(I))
      ENDDO
      PRINT *, A(1), A(7), A(N)
      END
|}

(* Pool bodies run on worker domains, where Alcotest's output is not
   safe to use: they only record, and the main domain asserts. *)
let suite =
  [
    case "pool: chunk schedule runs every iteration exactly once" (fun () ->
        Runtime.Pool.with_pool 3 (fun pool ->
            let hits = Array.init 100 (fun _ -> Atomic.make 0) in
            let workers = Array.make 100 (-1) in
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Chunk ~trip:100
              ~body:(fun ~worker k ->
                workers.(k) <- worker;
                Atomic.incr hits.(k));
            Array.iteri
              (fun i h ->
                check_int (Printf.sprintf "iteration %d" i) 1 (Atomic.get h))
              hits;
            check_bool "workers in range" true
              (Array.for_all (fun w -> w >= 0 && w < 3) workers)));
    case "pool: self schedule runs every iteration exactly once" (fun () ->
        Runtime.Pool.with_pool 4 (fun pool ->
            let hits = Array.init 37 (fun _ -> Atomic.make 0) in
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Self ~trip:37
              ~body:(fun ~worker:_ k -> Atomic.incr hits.(k));
            Array.iter (fun h -> check_int "once" 1 (Atomic.get h)) hits));
    case "pool: zero-trip loops are a no-op" (fun () ->
        Runtime.Pool.with_pool 2 (fun pool ->
            let ran = Atomic.make 0 in
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Chunk ~trip:0
              ~body:(fun ~worker:_ _ -> Atomic.incr ran);
            check_int "no iteration ran" 0 (Atomic.get ran)));
    case "pool: worker exception propagates, pool survives" (fun () ->
        Runtime.Pool.with_pool 2 (fun pool ->
            (try
               Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Self ~trip:50
                 ~body:(fun ~worker:_ k -> if k = 25 then failwith "boom");
               Alcotest.fail "expected an exception"
             with Failure m -> check_string "message" "boom" m);
            (* the pool is still usable after a failed job *)
            let n = Atomic.make 0 in
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Chunk ~trip:10
              ~body:(fun ~worker:_ _ -> Atomic.incr n);
            check_int "next job runs" 10 (Atomic.get n)));
    case "pool: map returns per-task results in task order" (fun () ->
        Runtime.Pool.with_pool 3 (fun pool ->
            let tasks = Array.init 23 (fun k () -> k * k) in
            let got = Runtime.Pool.map pool tasks in
            check_int "length" 23 (Array.length got);
            Array.iteri
              (fun k v -> check_int (Printf.sprintf "task %d" k) (k * k) v)
              got;
            check_int "empty" 0 (Array.length (Runtime.Pool.map pool [||]))));
    case "pool: map propagates a task exception, pool survives" (fun () ->
        Runtime.Pool.with_pool 2 (fun pool ->
            (try
               ignore
                 (Runtime.Pool.map pool
                    (Array.init 8 (fun k () ->
                         if k = 5 then failwith "task boom" else k)));
               Alcotest.fail "expected an exception"
             with Failure m -> check_string "message" "task boom" m);
            let got = Runtime.Pool.map pool (Array.init 4 (fun k () -> k)) in
            check_int "next map runs" 4 (Array.length got)));
    case "pool: parallel_for schedules every iteration" (fun () ->
        Runtime.Pool.with_pool 2 (fun pool ->
            let n = Atomic.make 0 in
            Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Chunk
              ~trip:10
              ~body:(fun ~worker:_ _ -> Atomic.incr n);
            check_int "all iterations" 10 (Atomic.get n)));
    case "schedule names parse" (fun () ->
        check_bool "chunk" true
          (List.assoc_opt "chunk" Runtime.Pool.schedule_names = Some Runtime.Pool.Chunk);
        check_bool "self" true
          (List.assoc_opt "self" Runtime.Pool.schedule_names = Some Runtime.Pool.Self);
        check_bool "junk" true (List.assoc_opt "junk" Runtime.Pool.schedule_names = None));
    case "every workload matches the simulator on 2 and 4 domains" (fun () ->
        List.iter
          (fun (w : Workloads.t) ->
            let p = parallelized w in
            List.iter
              (fun (domains, schedule) ->
                check_matches
                  (Printf.sprintf "%s @%d/%s" w.Workloads.name domains
                     (Runtime.Pool.schedule_to_string schedule))
                  p ~domains ~schedule)
              [
                (2, Runtime.Pool.Chunk);
                (4, Runtime.Pool.Chunk);
                (4, Runtime.Pool.Self);
              ])
          Workloads.all);
    case "one domain is bit-identical on every workload" (fun () ->
        List.iter
          (fun (w : Workloads.t) ->
            check_matches ~exact:true w.Workloads.name (parallelized w)
              ~domains:1 ~schedule:Runtime.Pool.Chunk)
          Workloads.all);
    case "elementwise kernel is bit-identical even on many domains" (fun () ->
        let program =
          Runtime.Exec.force_parallel
            (Parser.parse_program ~file:"bits.f" elementwise_src)
        in
        List.iter
          (fun (domains, schedule) ->
            check_matches ~exact:true
              (Printf.sprintf "bits @%d" domains)
              program ~domains ~schedule)
          [
            (2, Runtime.Pool.Chunk);
            (4, Runtime.Pool.Chunk);
            (4, Runtime.Pool.Self);
          ]);
    case "validator flags the forced-parallel tridiagonal solver" (fun () ->
        let w = Option.get (Workloads.by_name "tridiag") in
        let program = Runtime.Exec.force_parallel (Workloads.program w) in
        let o = Runtime.Exec.run ~validate:true program in
        let flows =
          List.filter
            (fun (c : Runtime.Exec.conflict) ->
              c.Runtime.Exec.c_kind = Runtime.Exec.Flow)
            o.Runtime.Exec.conflicts
        in
        check_bool "flow conflicts found" true (flows <> []);
        check_bool "back-substitution recurrence on X" true
          (List.exists
             (fun (c : Runtime.Exec.conflict) -> c.Runtime.Exec.c_var = "X")
             flows);
        List.iter
          (fun (c : Runtime.Exec.conflict) ->
            check_bool "distinct iterations" true
              (c.Runtime.Exec.c_iter_a <> c.Runtime.Exec.c_iter_b))
          o.Runtime.Exec.conflicts;
        (* validation changes no semantics: output still sequential *)
        let seq = seq_reference program in
        check_bool "validated run output" true
          (o.Runtime.Exec.output = seq.Sim.Interp.output));
    case "validator flags the forced-parallel linear recurrence" (fun () ->
        let w = Option.get (Workloads.by_name "recur") in
        let program = Runtime.Exec.force_parallel (Workloads.program w) in
        let o = Runtime.Exec.run ~validate:true program in
        check_bool "has flow conflict" true
          (List.exists
             (fun (c : Runtime.Exec.conflict) ->
               c.Runtime.Exec.c_kind = Runtime.Exec.Flow)
             o.Runtime.Exec.conflicts));
    case "validator is silent on every analysis-parallelized workload"
      (fun () ->
        List.iter
          (fun (w : Workloads.t) ->
            let o = Runtime.Exec.run ~validate:true (parallelized w) in
            check_int
              (w.Workloads.name ^ ": no conflicts")
              0
              (List.length o.Runtime.Exec.conflicts))
          Workloads.all);
    case "calibrate recovers synthetic weights" (fun () ->
        (* times generated from known weights over varied count mixes *)
        let w = [| 1.5; 3.0; 12.0; 2.5; 30.0 |] in
        let mk flops mems intrinsics loop_iters calls =
          let c =
            {
              Perf.Machine.flops;
              mems;
              intrinsics;
              loop_iters;
              calls;
            }
          in
          let time =
            (w.(0) *. flops) +. (w.(1) *. mems) +. (w.(2) *. intrinsics)
            +. (w.(3) *. loop_iters) +. (w.(4) *. calls)
          in
          (c, time)
        in
        let samples =
          [
            mk 1000. 300. 10. 100. 5.;
            mk 200. 900. 0. 50. 2.;
            mk 50. 60. 200. 10. 0.;
            mk 800. 100. 30. 400. 40.;
            mk 10. 10. 5. 5. 60.;
            mk 3000. 2500. 120. 700. 11.;
          ]
        in
        let m = Perf.Machine.calibrate samples Perf.Machine.default in
        let close a b = Float.abs (a -. b) /. b < 0.05 in
        check_bool "flop normalized" true (m.Perf.Machine.flop_cost = 1.0);
        check_bool "mem ratio" true
          (close m.Perf.Machine.mem_cost (w.(1) /. w.(0)));
        check_bool "intrinsic ratio" true
          (close m.Perf.Machine.intrinsic_cost (w.(2) /. w.(0)));
        check_bool "loop ratio" true
          (close m.Perf.Machine.loop_overhead (w.(3) /. w.(0)));
        check_bool "call ratio" true
          (close m.Perf.Machine.call_overhead (w.(4) /. w.(0)));
        check_bool "renamed" true
          (contains ~needle:"calibrated" m.Perf.Machine.name));
    case "calibrate on real runs produces positive weights" (fun () ->
        let progs =
          List.filter_map
            (fun n -> Option.map Workloads.program (Workloads.by_name n))
            [ "daxpy"; "sumred" ]
        in
        let m = Runtime.Calibrate.fit ~repeat:1 progs in
        check_bool "flop is the unit" true (m.Perf.Machine.flop_cost = 1.0);
        check_bool "mem positive" true (m.Perf.Machine.mem_cost > 0.0);
        check_bool "loop positive" true (m.Perf.Machine.loop_overhead > 0.0));
    case "runtime op counts are consistent with the program" (fun () ->
        let program = Parser.parse_program ~file:"bits.f" elementwise_src in
        let o = Runtime.Exec.run ~domains:1 program in
        (* two N-trip loops, N = 40 *)
        check_bool "iterations" true
          (o.Runtime.Exec.ops.Perf.Machine.loop_iters = 80.0);
        check_bool "intrinsics counted" true
          (o.Runtime.Exec.ops.Perf.Machine.intrinsics >= 120.0);
        check_bool "flops counted" true
          (o.Runtime.Exec.ops.Perf.Machine.flops > 0.0));
    case "simulator order: reverse exposes an order-dependent loop" (fun () ->
        let src =
          {|
      PROGRAM ORD
      REAL A(10), S
      INTEGER I
      DO I = 1, 10
        A(I) = FLOAT(I)
      ENDDO
      PARALLEL DO I = 1, 10
        S = A(I)
      ENDDO
      PRINT *, S
      END
|}
        in
        let fwd = run_output ~honor_parallel:true src in
        let rev =
          run_output ~honor_parallel:true ~par_order:Sim.Interp.Reverse src
        in
        check_bool "forward keeps the last iteration" true (fwd = [ "10" ]);
        check_bool "reverse keeps the first iteration" true (rev = [ "1" ]));
    case "simulate command accepts an iteration order" (fun () ->
        let w = Option.get (Workloads.by_name "daxpy") in
        let sess =
          Ped.Session.load (Workloads.program w)
            ~unit_name:(Workloads.main_unit w)
        in
        let out = Ped.Command.run sess "simulate 4 reverse" in
        check_bool "order noted" true
          (contains ~needle:"reverse iteration order" out);
        check_bool "order persists in the session" true
          ((Ped.Session.sim_order sess) = Sim.Interp.Reverse);
        let bad = Ped.Command.run sess "simulate 4 sideways" in
        check_bool "bad order rejected" true (contains ~needle:"error" bad));
    case "runtime statement and op counts equal the simulator's" (fun () ->
        List.iter
          (fun (w : Workloads.t) ->
            let program = parallelized w in
            let m =
              Sim.Interp.load ~parallel:Sim.Interp.Sequential ~max_steps:50_000_000
                program
            in
            Sim.Interp.run_main m;
            let stmts = Sim.Interp.stmts_executed m and ops = Sim.Interp.op_counts m in
            let same label (o : Runtime.Exec.outcome) =
              let label = w.Workloads.name ^ " " ^ label in
              check_int (label ^ ": statements") stmts o.Runtime.Exec.stmts_executed;
              check_bool (label ^ ": op counts") true (o.Runtime.Exec.ops = ops)
            in
            same "2 domains" (Runtime.Exec.run ~domains:2 program);
            same "4 domains" (Runtime.Exec.run ~domains:4 program);
            same "validated" (Runtime.Exec.run ~validate:true program))
          Workloads.all);
    case "a runaway PARALLEL DO on 2 domains exhausts the budget" (fun () ->
        let runaway =
          parse
            "      PROGRAM P\n      REAL A(8)\n      PARALLEL DO I = 1, 8\n 10     A(I) = A(I) + 1.0\n        GOTO 10\n      ENDDO\n      END\n"
        in
        (match Runtime.Exec.run ~domains:2 ~max_steps:10_000 runaway with
        | exception Runtime.Exec.Runtime_error m ->
          check_string "message" "statement budget exhausted" m
        | _ -> Alcotest.fail "expected budget exhaustion");
        let program = Parser.parse_program ~file:"bits.f" elementwise_src in
        let o = Runtime.Exec.run ~domains:2 program in
        check_bool "the next run still works" true
          (o.Runtime.Exec.output = (seq_reference program).Sim.Interp.output));
    case "pool: same-pool nested map runs inline, in task order" (fun () ->
        Runtime.Pool.with_pool 3 (fun pool ->
            let got =
              Runtime.Pool.map pool
                (Array.init 6 (fun i () ->
                     Runtime.Pool.map pool
                       (Array.init 5 (fun j () -> (10 * i) + j))))
            in
            check_int "outer length" 6 (Array.length got);
            Array.iteri
              (fun i row ->
                check_int "inner length" 5 (Array.length row);
                Array.iteri
                  (fun j v ->
                    check_int (Printf.sprintf "task %d.%d" i j)
                      ((10 * i) + j) v)
                  row)
              got));
    case "pool: workers of one pool share another pool's map" (fun () ->
        Runtime.Pool.with_pool 2 (fun a ->
            Runtime.Pool.with_pool 2 (fun b ->
                let rounds = 200 and tasks = 16 in
                let correct = Atomic.make 0 in
                Runtime.Pool.parallel_for a ~schedule:Runtime.Pool.Chunk
                  ~trip:(Runtime.Pool.size a)
                  ~body:(fun ~worker:_ w ->
                    for r = 1 to rounds do
                      let got =
                        Runtime.Pool.map b
                          (Array.init tasks (fun k () -> (w * 1000) + r + k))
                      in
                      Array.iteri
                        (fun k v ->
                          if v = (w * 1000) + r + k then Atomic.incr correct)
                        got
                    done);
                check_int "every result correct, none lost"
                  (Runtime.Pool.size a * rounds * tasks)
                  (Atomic.get correct))));
    case "pool: inline job exception reaches the caller" (fun () ->
        Runtime.Pool.with_pool 2 (fun a ->
            Runtime.Pool.with_pool 2 (fun b ->
                let nested_failure outer inner =
                  try
                    ignore
                      (Runtime.Pool.map outer
                         (Array.init 4 (fun i () ->
                              Runtime.Pool.map inner
                                (Array.init 3 (fun j () ->
                                     if i = 2 && j = 1 then
                                       failwith "inline boom"
                                     else j)))));
                    Alcotest.fail "expected an exception"
                  with Failure m -> check_string "message" "inline boom" m
                in
                nested_failure a a;
                nested_failure b b;
                nested_failure a b;
                (* both pools still take jobs, nested ones included *)
                List.iter
                  (fun p ->
                    let got =
                      Runtime.Pool.map p
                        (Array.init 4 (fun i () ->
                             Array.fold_left ( + ) 0
                               (Runtime.Pool.map p
                                  (Array.init 3 (fun j () -> i + j)))))
                    in
                    Array.iteri
                      (fun i v -> check_int "after failure" ((3 * i) + 3) v)
                      got)
                  [ a; b ])));
    case "plan: a CALL-killed scalar is private, the run conflict-free"
      (fun () ->
        let p = editor_parallelized (interproc_private ()) in
        let outer =
          List.find_map
            (fun (s : Ast.stmt) ->
              match s.Ast.node with
              | Ast.Do (h, _) when h.Ast.parallel -> Some s.Ast.sid
              | _ -> None)
            (Ast.entry_unit p).Ast.body
        in
        let plan = Hashtbl.find (Runtime.Plan.build p) (Option.get outer) in
        check_bool "X privatized" true
          (List.mem "X" plan.Runtime.Plan.p_privates);
        let out = Runtime.Exec.run ~validate:true p in
        check_int "no conflicts" 0 (List.length out.Runtime.Exec.conflicts);
        check_string "every element right" "0"
          (List.hd out.Runtime.Exec.output));
  ]
