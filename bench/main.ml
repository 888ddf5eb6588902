(* The evaluation harness: regenerates every table and figure of
   EXPERIMENTS.md and runs the gated engineering experiments.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table3  -- one experiment

   Every entry is an [experiment]; one driver (the end of this file)
   writes its BENCH_<name>.json, prints its skipped gates as notes and,
   after every named experiment has run, exits 1 naming each failed
   gate. *)

open Fortran_front
open Dependence

let line = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* monotonic wall clock, from lib/telemetry's C stub *)
let now_s () = Int64.to_float (Telemetry.now_ns ()) /. 1e9

type gate = Pass | Fail of string | Skipped of string

(* What a run reports: the fields of its BENCH_<name>.json (None for a
   print-only table, which writes no file) and its named gates. *)
type result = {
  fields : (string * Jout.t) list option;
  gates : (string * gate) list;
}

type experiment = { name : string; run : unit -> result }

let check ok reason = if ok then Pass else Fail reason

(* a print-only table: no JSON, no gates *)
let table name f =
  { name; run = (fun () -> f (); { fields = None; gates = [] }) }

(* the skip every speed gate takes on a host without a second core *)
let single_core cores what =
  Skipped
    (Printf.sprintf "single-core machine (recommended_domain_count %d) - %s"
       cores what)

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let all_units (w : Workloads.t) = (Workloads.program w).Ast.punits

(* every unit's (environment, graph) pair of a program, from one
   engine under a config *)
let analyses ?config ?interproc (p : Ast.program) =
  let engine = Engine.create ?config ?interproc p in
  List.map
    (fun (u : Ast.program_unit) ->
      Option.get (Engine.analysis engine ~unit_name:u.Ast.uname))
    p.Ast.punits

let count_parallel analyses =
  List.fold_left
    (fun acc (env, ddg) ->
      acc
      + List.length
          (List.filter
             (fun (l : Loopnest.loop) ->
               Transform.Parallelize.parallelizable env ddg
                 l.Loopnest.lstmt.Ast.sid)
             (Loopnest.loops env.Depenv.nest)))
    0 analyses

(* A workload after its assertion script and auto-parallelization —
   the same pipeline ped --execute uses. *)
let parallelized_program (w : Workloads.t) =
  let sess =
    Ped.Session.load (Workloads.program w) ~unit_name:(Workloads.main_unit w)
  in
  ignore (Ped.Command.script sess w.Workloads.assertion_script);
  ignore (Ped.Session.parallelize_safe_loops sess);
  Ped.Session.program sess

let speedup_at p program =
  let machine = Perf.Machine.with_processors p Perf.Machine.default in
  let seq = Sim.Interp.run ~machine ~honor_parallel:false program in
  let par = Sim.Interp.run ~machine ~honor_parallel:true program in
  seq.Sim.Interp.cycles /. Float.max 1.0 par.Sim.Interp.cycles

(* ------------------------------------------------------------------ *)
(* Table 1: workload inventory                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header
    "Table 1: the workload suite (programs, size, loops) - cf. the programs \
     table of the Ped evaluations";
  Printf.printf "%-10s %6s %6s %6s %6s  %s\n" "program" "lines" "units"
    "loops" "depth" "phenomenon";
  List.iter
    (fun (w : Workloads.t) ->
      let lines =
        List.length
          (List.filter
             (fun l -> String.trim l <> "")
             (String.split_on_char '\n' w.Workloads.source))
      in
      let units = all_units w in
      let nests = List.map (fun u -> Loopnest.build u) units in
      let loops =
        List.fold_left (fun acc n -> acc + List.length (Loopnest.loops n)) 0 nests
      in
      let depth =
        List.fold_left (fun acc n -> max acc (Loopnest.max_depth n)) 0 nests
      in
      Printf.printf "%-10s %6d %6d %6d %6d  %s\n" w.Workloads.name lines
        (List.length units) loops depth w.Workloads.phenomenon)
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Table 2: dependence-test hierarchy effectiveness                    *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header
    "Table 2: dependence testing - reference pairs disposed of by each test \
     (the cheap tests dominate, as in 'Practical Dependence Testing')";
  let tests =
    [ "ziv"; "strong-siv"; "weak-zero-siv"; "weak-crossing-siv"; "exact-siv";
      "gcd"; "banerjee"; "delta-inconsistent" ]
  in
  Printf.printf "%-10s %6s" "program" "pairs";
  List.iter (fun t -> Printf.printf " %7s" (String.sub t 0 (min 7 (String.length t)))) tests;
  Printf.printf " %7s %7s\n" "proven" "pending";
  let totals = Hashtbl.create 8 in
  let tp = ref 0 and tproven = ref 0 and tpending = ref 0 in
  List.iter
    (fun (w : Workloads.t) ->
      let stats =
        List.map (fun (_, g) -> g.Ddg.stats) (analyses (Workloads.program w))
      in
      let pairs = List.fold_left (fun a s -> a + s.Ddg.pairs_tested) 0 stats in
      let by t =
        List.fold_left
          (fun a s -> a + Option.value ~default:0 (List.assoc_opt t s.Ddg.disproved))
          0 stats
      in
      let proven = List.fold_left (fun a s -> a + s.Ddg.proven) 0 stats in
      let pending = List.fold_left (fun a s -> a + s.Ddg.pending) 0 stats in
      tp := !tp + pairs;
      tproven := !tproven + proven;
      tpending := !tpending + pending;
      Printf.printf "%-10s %6d" w.Workloads.name pairs;
      List.iter
        (fun t ->
          let n = by t in
          Hashtbl.replace totals t (n + Option.value ~default:0 (Hashtbl.find_opt totals t));
          Printf.printf " %7d" n)
        tests;
      Printf.printf " %7d %7d\n" proven pending)
    Workloads.all;
  Printf.printf "%-10s %6d" "TOTAL" !tp;
  List.iter
    (fun t -> Printf.printf " %7d" (Option.value ~default:0 (Hashtbl.find_opt totals t)))
    tests;
  Printf.printf " %7d %7d\n" !tproven !tpending;
  (* The workload pairs are mostly genuine dependences; the classic
     evaluation of the hierarchy runs it over subscript-pair patterns
     (Goff/Kennedy/Tseng style).  Corpus below: one kernel per
     pattern, showing the deciding test. *)
  Printf.printf "\nsubscript-pair corpus (which test decides):\n";
  Printf.printf "  %-34s %-12s %s\n" "pattern" "outcome" "decided by";
  let decide (label, src) =
    let p = Parser.parse_program ~file:"c.f" src in
    let st = (snd (List.hd (analyses ~interproc:false p))).Ddg.stats in
    let outcome, why =
      if st.Ddg.disproved <> [] then
        ( "independent",
          String.concat ","
            (List.map (fun (t, n) -> Printf.sprintf "%s x%d" t n)
               st.Ddg.disproved) )
      else if st.Ddg.proven > 0 then ("dependent", "exact (proven)")
      else if st.Ddg.pending > 0 then ("assumed", "no test applies (pending)")
      else ("independent", "same-iteration only")
    in
    Printf.printf "  %-34s %-12s %s\n" label outcome why
  in
  List.iter
    (fun (label, stmt, bounds) ->
      decide
        ( label,
          Printf.sprintf
            "      PROGRAM T\n      REAL A(200)\n      INTEGER IDX(200), M\n      DO I = %s\n        %s\n      ENDDO\n      END\n"
            bounds stmt ))
    [
      ("A(I) vs A(I)", "A(I) = A(I) + 1.0", "1, 10");
      ("A(I) vs A(I-1)", "A(I) = A(I-1) + 1.0", "2, 10");
      ("A(2I) vs A(2I+1)", "A(2*I) = A(2*I+1) + 1.0", "1, 10");
      ("A(I) vs A(I+20), trip 10", "A(I) = A(I+20) + 1.0", "1, 10");
      ("A(I+10) vs A(5), trip 5", "A(I+10) = A(5) + 1.0", "1, 5");
      ("A(I) vs A(30-I), trip 10", "A(I) = A(30-I) + 1.0", "1, 10");
      ("A(2I) vs A(I+100), trip 10", "A(2*I) = A(I+100) + 1.0", "1, 10");
      ("A(I) vs A(I+M), M unknown", "A(I) = A(I+M) + 1.0", "1, 10");
      ("A(IDX(I)) vs A(IDX(I))", "A(IDX(I)) = A(IDX(I)) + 1.0", "1, 10");
    ];
  (* two-loop patterns *)
  List.iter
    (fun (label, stmt) ->
      decide
        ( label,
          Printf.sprintf
            "      PROGRAM T\n      REAL A(200), B(40,40)\n      DO I = 1, 10\n        DO J = 1, 10\n          %s\n        ENDDO\n      ENDDO\n      END\n"
            stmt ))
    [
      ("A(2I+4J) vs A(2I+4J+1)", "A(2*I + 4*J) = A(2*I + 4*J + 1) + 1.0");
      ("A(I+J) vs A(I+J+100)", "A(I + J) = A(I + J + 100) + 1.0");
      ("B(I,I) vs B(I-1,I-2)", "B(I,I) = B(I-1,I-2) + 1.0");
      ("B(I,J) vs B(J,I)", "B(I,J) = B(J,I) + 1.0");
    ]

(* ------------------------------------------------------------------ *)
(* Table 3: analysis ablation                                          *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header
    "Table 3: parallelizable loops as analyses are added (each column adds \
     one analysis; the Ped evaluation's 'which analyses matter')";
  let stages =
    [
      ("deptest", Depenv.base_config, false);
      ("+const", { Depenv.base_config with Depenv.use_constants = true }, false);
      ( "+symb",
        { Depenv.base_config with Depenv.use_constants = true;
          use_symbolics = true },
        false );
      ("+scalar", Depenv.full_config, false);
      ("+interp", Depenv.full_config, true);
    ]
  in
  Printf.printf "%-10s %6s" "program" "loops";
  List.iter (fun (n, _, _) -> Printf.printf " %8s" n) stages;
  Printf.printf " %8s\n" "+assert";
  List.iter
    (fun (w : Workloads.t) ->
      let total =
        List.fold_left
          (fun acc u -> acc + List.length (Loopnest.loops (Loopnest.build u)))
          0 (all_units w)
      in
      Printf.printf "%-10s %6d" w.Workloads.name total;
      List.iter
        (fun (_, config, interproc) ->
          Printf.printf " %8d"
            (count_parallel (analyses ~config ~interproc (Workloads.program w))))
        stages;
      (* +assertions: run the workload's assertion script in a session,
         then count across all units *)
      let with_asserts =
        let sess =
          Ped.Session.load (Workloads.program w)
            ~unit_name:(Workloads.main_unit w)
        in
        ignore (Ped.Command.script sess w.Workloads.assertion_script);
        List.fold_left
          (fun acc (u : Ast.program_unit) ->
            match Ped.Session.focus sess u.Ast.uname with
            | Ok () ->
              acc + List.length (Ped.Session.parallelizable_loops sess)
            | Error _ -> acc)
          0
          (Ped.Session.program sess).Ast.punits
      in
      Printf.printf " %8d\n" with_asserts)
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Table 4: transformation diagnosis matrix                            *)
(* ------------------------------------------------------------------ *)

let table4 () =
  header
    "Table 4: power-steering diagnoses over every loop of the suite \
     (applicable / safe / profitable)";
  let counts = Hashtbl.create 16 in
  let bump name (a, s, p) =
    let a0, s0, p0 =
      Option.value ~default:(0, 0, 0) (Hashtbl.find_opt counts name)
    in
    Hashtbl.replace counts name
      ( (a0 + if a then 1 else 0),
        (s0 + if s then 1 else 0),
        p0 + if p then 1 else 0 )
  in
  let record name (d : Transform.Diagnosis.t) =
    bump name
      (d.Transform.Diagnosis.applicable, d.Transform.Diagnosis.safe,
       d.Transform.Diagnosis.profitable)
  in
  List.iter
    (fun (w : Workloads.t) ->
      (* one engine per workload: it analyses each unit
         interprocedurally, and each candidate rewrite the same way *)
      let engine = Engine.create (Workloads.program w) in
      let analyze = Engine.candidate engine in
      List.iter
        (fun (u : Ast.program_unit) ->
          let env, ddg =
            Option.get (Engine.analysis engine ~unit_name:u.Ast.uname)
          in
          let loops = Loopnest.loops env.Depenv.nest in
          List.iter
            (fun (l : Loopnest.loop) ->
              let sid = l.Loopnest.lstmt.Ast.sid in
              record "parallelize" (Transform.Parallelize.diagnose env ddg sid);
              record "interchange" (Transform.Interchange.diagnose env ddg sid);
              record "distribute" (Transform.Distribute.diagnose env ddg sid);
              record "reverse" (Transform.Reverse.diagnose env ddg sid);
              record "skew" (Transform.Skew.diagnose ~analyze env ddg sid ~factor:1);
              record "strip" (Transform.Strip_mine.diagnose env ddg sid ~block:4);
              record "unroll" (Transform.Unroll.diagnose env ddg sid ~factor:2);
              record "tile" (Transform.Tile.diagnose ~analyze env ddg sid ~block:4);
              record "normalize" (Transform.Normalize_loop.diagnose env ddg sid);
              record "peel" (Transform.Peel.diagnose env ddg sid ~which:Transform.Peel.First))
            loops;
          (* fusion over adjacent sibling loop pairs *)
          let rec pairs = function
            | ({ Ast.node = Ast.Do _; _ } as a)
              :: ({ Ast.node = Ast.Do _; _ } as b)
              :: rest ->
              record "fuse"
                (Transform.Fuse.diagnose ~analyze env ddg a.Ast.sid b.Ast.sid);
              pairs (b :: rest)
            | _ :: rest -> pairs rest
            | [] -> ()
          in
          pairs env.Depenv.punit.Ast.body)
        (all_units w))
    Workloads.all;
  Printf.printf "%-14s %10s %10s %10s\n" "transformation" "applicable" "safe"
    "profitable";
  List.iter
    (fun name ->
      match Hashtbl.find_opt counts name with
      | Some (a, s, p) -> Printf.printf "%-14s %10d %10d %10d\n" name a s p
      | None -> ())
    [ "parallelize"; "interchange"; "distribute"; "fuse"; "reverse"; "skew";
      "strip"; "unroll"; "tile"; "normalize"; "peel" ]

(* ------------------------------------------------------------------ *)
(* Table 5: simulated speedups after editor parallelization            *)
(* ------------------------------------------------------------------ *)

let table5 () =
  header
    "Table 5: simulated speedup after Ped parallelization, per processor \
     count (DOALL-heavy kernels scale; recurrence-bound ones don't)";
  let procs = [ 1; 2; 4; 8; 16 ] in
  Printf.printf "%-10s" "program";
  List.iter (fun p -> Printf.printf " %7s" (Printf.sprintf "P=%d" p)) procs;
  Printf.printf "\n";
  List.iter
    (fun (w : Workloads.t) ->
      let program = parallelized_program w in
      Printf.printf "%-10s" w.Workloads.name;
      List.iter
        (fun p -> Printf.printf " %7.2f" (speedup_at p program))
        procs;
      Printf.printf "\n")
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Figure 1: estimator navigation vs simulator                         *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header
    "Figure 1: performance-estimator loop ranking (predicted share) vs \
     simulated share - the 'which loop next' navigation aid";
  List.iter
    (fun name ->
      let w = Option.get (Workloads.by_name name) in
      let p = Workloads.program w in
      let u = List.find (fun (u : Ast.program_unit) -> u.Ast.kind = Ast.Main) p.Ast.punits in
      let env = Depenv.make (Unit_syntax.build u) in
      let outcome = Sim.Interp.run ~honor_parallel:false p in
      let total = Float.max 1.0 outcome.Sim.Interp.cycles in
      Printf.printf "%s:\n" name;
      Printf.printf "  %-22s %10s %10s\n" "loop" "predicted" "simulated";
      List.iter
        (fun ((l : Loopnest.loop), _, share) ->
          let sid = l.Loopnest.lstmt.Ast.sid in
          let measured =
            Option.value ~default:0.0
              (List.assoc_opt sid outcome.Sim.Interp.loop_cycles)
            /. total
          in
          Printf.printf "  %-22s %9.1f%% %9.1f%%\n"
            (Printf.sprintf "s%d DO %s (depth %d)" sid
               l.Loopnest.header.Ast.dvar l.Loopnest.depth)
            (100.0 *. share) (100.0 *. measured))
        (Perf.Estimator.rank_loops env))
    [ "matmul"; "jacobi"; "tridiag" ]

(* ------------------------------------------------------------------ *)
(* Figure 2: view filtering                                            *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header
    "Figure 2: dependence-pane size under view filters (filtering is what \
     makes the pane usable on real loops)";
  Printf.printf "%-10s %8s %8s %8s %8s %8s\n" "program" "all" "default"
    "carried" "noscalar" "pending";
  List.iter
    (fun name ->
      let w = Option.get (Workloads.by_name name) in
      let sess =
        Ped.Session.load (Workloads.program w)
          ~unit_name:(Workloads.main_unit w)
      in
      let count filter =
        Ped.Session.set_dep_filter sess filter;
        List.length (Ped.Session.visible_deps sess)
      in
      let open Ped.Filter in
      Printf.printf "%-10s %8d %8d %8d %8d %8d\n" name (count show_all)
        (count default_dep_filter)
        (count { default_dep_filter with f_carried_only = true })
        (count { default_dep_filter with f_hide_scalar = true })
        (count
           { default_dep_filter with f_status = Some Ped.Marking.Pending }))
    [ "matmul"; "sor"; "tridiag"; "indexarr"; "callnest" ]

(* ------------------------------------------------------------------ *)
(* Figure 3: user assertions                                           *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header
    "Figure 3: dependence marking and user assertions - pending dependences \
     and parallel loops before/after the user speaks up";
  Printf.printf "%-10s %-22s %9s %9s %9s %9s\n" "program" "assertion"
    "pend.bef" "pend.aft" "par.bef" "par.aft";
  List.iter
    (fun (name, unit_name, cmds, label) ->
      let w = Option.get (Workloads.by_name name) in
      let sess = Ped.Session.load (Workloads.program w) ~unit_name in
      let pending () =
        List.length
          (List.filter
             (fun (d : Ddg.dep) ->
               (not d.Ddg.is_scalar)
               && d.Ddg.kind <> Ddg.Control
               && Ped.Marking.status_of (Ped.Session.marking sess) d
                  = Ped.Marking.Pending)
             (Ped.Session.ddg sess).Ddg.deps)
      in
      let par () = List.length (Ped.Session.parallelizable_loops sess) in
      let pb = pending () and parb = par () in
      List.iter (fun c -> ignore (Ped.Command.run sess c)) cmds;
      Printf.printf "%-10s %-22s %9d %9d %9d %9d\n" name label pb (pending ())
        parb (par ()))
    [
      ("symbounds", "SHIFT", [ "assert M = 64" ], "M = 64");
      ("indexarr", "IDXARR", [ "assert perm IDX" ], "IDX is a permutation");
    ]

(* ------------------------------------------------------------------ *)
(* Figure 4: transformation case studies                               *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header
    "Figure 4: transformation case studies on 8 processors - each recipe \
     beats parallelize-only on its kernel";
  let study name setup =
    let w = Option.get (Workloads.by_name name) in
    let speedup setup =
      let sess =
        Ped.Session.load (Workloads.program w)
          ~unit_name:(Workloads.main_unit w)
      in
      setup sess;
      ignore (Ped.Session.parallelize_safe_loops sess);
      speedup_at 8 (Ped.Session.program sess)
    in
    let base = speedup ignore in
    (base, speedup setup)
  in
  Printf.printf "%-10s %-24s %14s %14s\n" "program" "recipe" "parallel-only"
    "with recipe";
  let matmul_base, matmul_tr =
    study "matmul" (fun sess ->
        let k =
          List.find
            (fun (l : Loopnest.loop) -> l.Loopnest.header.Ast.dvar = "K")
            (Ped.Session.loops sess)
        in
        ignore
          (Ped.Session.transform sess "interchange"
             (Transform.Catalog.On_loop k.Loopnest.lstmt.Ast.sid)))
  in
  Printf.printf "%-10s %-24s %13.2fx %13.2fx\n" "matmul" "interchange"
    matmul_base matmul_tr;
  let sor_base, sor_tr =
    study "sor" (fun sess ->
        let i =
          List.find
            (fun (l : Loopnest.loop) ->
              l.Loopnest.header.Ast.dvar = "I" && l.Loopnest.depth = 2)
            (Ped.Session.loops sess)
        in
        let sid = i.Loopnest.lstmt.Ast.sid in
        ignore
          (Ped.Session.transform sess "skew"
             (Transform.Catalog.With_factor (sid, 1)));
        ignore
          (Ped.Session.transform sess "interchange"
             (Transform.Catalog.On_loop sid)))
  in
  Printf.printf "%-10s %-24s %13.2fx %13.2fx\n" "sor" "skew + interchange"
    sor_base sor_tr;
  let recur_base, recur_tr =
    study "recur" (fun sess ->
        let blocked =
          List.find
            (fun (l : Loopnest.loop) ->
              not (Ped.Session.is_parallelizable sess l.Loopnest.lstmt.Ast.sid))
            (Ped.Session.loops sess)
        in
        ignore
          (Ped.Session.transform sess "distribute"
             (Transform.Catalog.On_loop blocked.Loopnest.lstmt.Ast.sid)))
  in
  Printf.printf "%-10s %-24s %13.2fx %13.2fx\n" "recur" "distribution"
    recur_base recur_tr

(* ------------------------------------------------------------------ *)
(* Ablation: machine-model sensitivity                                 *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header
    "Ablation: fork/join cost sensitivity at P=8 - the granularity \
     trade-off the editor's profitability advice encodes";
  let fork_costs = [ 0.0; 50.0; 200.0; 800.0 ] in
  Printf.printf "%-10s" "program";
  List.iter (fun f -> Printf.printf " %9s" (Printf.sprintf "fork=%.0f" f)) fork_costs;
  Printf.printf "\n";
  List.iter
    (fun name ->
      let w = Option.get (Workloads.by_name name) in
      let sess =
        Ped.Session.load (Workloads.program w)
          ~unit_name:(Workloads.main_unit w)
      in
      ignore (Ped.Session.parallelize_safe_loops sess);
      let program = (Ped.Session.program sess) in
      Printf.printf "%-10s" name;
      List.iter
        (fun fork ->
          let machine =
            { (Perf.Machine.with_processors 8 Perf.Machine.default) with
              Perf.Machine.fork_join = fork }
          in
          let seq = Sim.Interp.run ~machine ~honor_parallel:false program in
          let par = Sim.Interp.run ~machine ~honor_parallel:true program in
          Printf.printf " %9.2f"
            (seq.Sim.Interp.cycles /. Float.max 1.0 par.Sim.Interp.cycles))
        fork_costs;
      Printf.printf "\n")
    [ "daxpy"; "matmul"; "redblack"; "gauss"; "jacobi" ];
  (* scheduling: block vs cyclic — per-iteration work must vary within
     one parallel loop for the policy to matter, so the demo includes a
     triangular kernel alongside a uniform one *)
  Printf.printf
    "\nscheduling (P=8): block vs cyclic iteration assignment\n";
  Printf.printf "%-10s %9s %9s\n" "kernel" "block" "cyclic";
  let programs =
    [
      ( "triangle",
        "      PROGRAM TRI\n      REAL A(64,64)\n      REAL S\n      PARALLEL DO I = 1, 64\n        DO J = 1, I\n          A(I,J) = FLOAT(I + J)\n        ENDDO\n      ENDDO\n      S = 0.0\n      DO I = 1, 64\n        S = S + A(I,1)\n      ENDDO\n      PRINT *, S\n      END\n" );
      ( "uniform",
        "      PROGRAM UNI\n      REAL A(64,64)\n      REAL S\n      PARALLEL DO I = 1, 64\n        DO J = 1, 64\n          A(I,J) = FLOAT(I + J)\n        ENDDO\n      ENDDO\n      S = 0.0\n      DO I = 1, 64\n        S = S + A(I,1)\n      ENDDO\n      PRINT *, S\n      END\n" );
    ]
  in
  List.iter
    (fun (name, src) ->
      let program = Parser.parse_program ~file:(name ^ ".f") src in
      let speed sched =
        let machine =
          Perf.Machine.with_schedule sched
            (Perf.Machine.with_processors 8 Perf.Machine.default)
        in
        let seq = Sim.Interp.run ~machine ~honor_parallel:false program in
        let par = Sim.Interp.run ~machine ~honor_parallel:true program in
        seq.Sim.Interp.cycles /. Float.max 1.0 par.Sim.Interp.cycles
      in
      Printf.printf "%-10s %9.2f %9.2f\n" name (speed Perf.Machine.Block)
        (speed Perf.Machine.Cyclic))
    programs

(* ------------------------------------------------------------------ *)
(* Table 6: predicted vs measured speedup on the multicore runtime     *)
(* ------------------------------------------------------------------ *)

let best_wall ?(reps = 3) ~domains program =
  let best = ref infinity in
  for _ = 1 to reps do
    let o = Runtime.Exec.run ~domains program in
    if o.Runtime.Exec.wall_s < !best then best := o.Runtime.Exec.wall_s
  done;
  !best

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log (Float.max 1e-12 x)) 0.0 xs
      /. float_of_int (List.length xs))

(* The compiled column: best-of-[reps] wall of the loaded plugin on a
   [p]-domain pool, with every run diffed against the sequential
   simulator baseline (the identity gate samples all reps, not one). *)
let compiled_wall built ~domains ~reps (base : Sim.Interp.outcome) =
  Runtime.Pool.with_pool domains (fun pool ->
      let best = ref infinity and ok = ref true in
      for _ = 1 to reps do
        match
          Codegen.Compile.run built ~pool:(Some pool)
            ~schedule:Runtime.Pool.Chunk
        with
        | Error _ -> ok := false
        | Ok r ->
          if r.Codegen.Compile.wall_s < !best then
            best := r.Codegen.Compile.wall_s;
          if
            not
              (Sim.Interp.outputs_match ~tol:1e-4 r.Codegen.Compile.out_lines
                 base.Sim.Interp.output
              && Sim.Interp.stores_match r.Codegen.Compile.store
                   base.Sim.Interp.final_store)
          then ok := false
      done;
      (!best, !ok))

let table6_run ~smoke label =
  header
    "Table 6: predicted (simulator cycles) vs measured (multicore runtime \
     wall clock) vs compiled (native codegen) speedup";
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "  this machine offers %d core(s); measured speedups cannot exceed that, \
     while predictions assume the abstract machine really has P processors; \
     comp@P is the native-compiled speedup over the sequential interpreter\n"
    cores;
  let wls = if smoke then [ List.hd Workloads.all ] else Workloads.all in
  let domain_counts = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let reps = 3 in
  let identity_ok = ref true in
  let toolchain_note = ref None in
  let cg_speedups = ref [] in
  Printf.printf "%-10s" "program";
  List.iter (fun p -> Printf.printf "  pred@%d meas@%d  comp@%d" p p p)
    domain_counts;
  Printf.printf "\n";
  let rows =
    List.map
      (fun (w : Workloads.t) ->
        let base = Workloads.program w in
        let par = parallelized_program w in
        let sim_base = Sim.Interp.run ~honor_parallel:false base in
        let seq_wall = best_wall ~reps ~domains:1 base in
        let built =
          match Codegen.Compile.build par with
          | Ok b -> Some b
          | Error (Codegen.Compile.Toolchain m) ->
            toolchain_note := Some m;
            None
          | Error e ->
            (* a table6 kernel outside the subset (or failing to build)
               is a regression: every kernel compiles today *)
            Printf.eprintf "%s: %s: %s\n" label w.Workloads.name
              (Codegen.Compile.error_to_string e);
            identity_ok := false;
            None
        in
        Printf.printf "%-10s" w.Workloads.name;
        let summary = Interproc.Summary.analyze par in
        let best_cg = ref infinity in
        let cols =
          List.map
            (fun p ->
              let pred = speedup_at p par in
              (* the static estimator's promise, recorded next to the
                 simulated and measured columns so prediction drift is
                 visible in the JSON *)
              let est = Perfdebug.Driver.predicted_of ~summary ~processors:p par in
              let meas =
                seq_wall /. Float.max 1e-9 (best_wall ~reps ~domains:p par)
              in
              let cg =
                match built with
                | None -> None
                | Some b ->
                  let wall, ok = compiled_wall b ~domains:p ~reps sim_base in
                  if not ok then begin
                    Printf.eprintf
                      "%s: %s compiled run diverged at %d domains\n" label
                      w.Workloads.name p;
                    identity_ok := false
                  end;
                  if wall < !best_cg then best_cg := wall;
                  Some (wall, seq_wall /. Float.max 1e-9 wall, ok)
              in
              (match cg with
              | Some (_, s, _) -> Printf.printf "  %6.2f %6.2f %7.1f" pred meas s
              | None -> Printf.printf "  %6.2f %6.2f %7s" pred meas "-");
              (p, pred, est, meas, cg))
            domain_counts
        in
        Printf.printf "\n%!";
        if built <> None then
          cg_speedups := (seq_wall /. Float.max 1e-9 !best_cg) :: !cg_speedups;
        (w.Workloads.name, seq_wall, cols))
      wls
  in
  let gm = geomean !cg_speedups in
  if !cg_speedups <> [] then
    Printf.printf
      "compiled speedup over the interpreter: %.1fx geomean (best schedule \
       point per kernel)\n"
    gm;
  let speedup_gate =
    match !toolchain_note with
    | Some m ->
      Skipped
        (Printf.sprintf
           "no native toolchain (%s) - compiled column and speedup gate \
            skipped"
           m)
    | None when cores < 2 ->
      single_core cores "speedup gate skipped, identity gate enforced"
    | None ->
      (* native code must beat the interpreter by a wide margin
         wherever there are cores to run it *)
      check (gm >= 5.0)
        (Printf.sprintf
           "compiled geomean speedup %.1fx < 5x over the interpreter on a \
            %d-core machine"
           gm cores)
  in
  {
    fields =
      Some
        [
          ("cores", Jout.Int cores);
          ("reps", Jout.Int reps);
          ( "programs",
            Jout.List
              (List.map
                 (fun (name, seq_wall, cols) ->
                   Jout.Obj
                     [
                       ("name", Jout.Str name);
                       ("interp_seq_wall_s", Jout.Float seq_wall);
                       ( "columns",
                         Jout.List
                           (List.map
                              (fun (p, pred, est, meas, cg) ->
                                Jout.Obj
                                  ([
                                     ("domains", Jout.Int p);
                                     ("predicted", Jout.Float pred);
                                     ("estimator_predicted", Jout.Float est);
                                     ("measured", Jout.Float meas);
                                   ]
                                  @
                                  match cg with
                                  | None -> [ ("compiled", Jout.Null) ]
                                  | Some (wall, s, ok) ->
                                    [
                                      ("compiled_wall_s", Jout.Float wall);
                                      ("compiled_speedup", Jout.Float s);
                                      ("identical", Jout.Bool ok);
                                    ]))
                              cols) );
                     ])
                 rows) );
          ("compiled_geomean_speedup", Jout.Float gm);
          ("identity_ok", Jout.Bool !identity_ok);
          ( "toolchain",
            match !toolchain_note with
            | None -> Jout.Str "available"
            | Some m -> Jout.Str ("missing: " ^ m) );
        ];
    gates =
      [
        (* always enforced: a compiled kernel that computes something
           else is wrong at any speed *)
        ( "identity",
          check !identity_ok "compiled runs diverged from the interpreter" );
        ("speedup", speedup_gate);
      ];
  }

let calibrate_exp () =
  header
    "Calibration: per-op cycle weights fitted from measured multicore-runtime \
     executions (one sample per workload)";
  let progs = List.map Workloads.program Workloads.all in
  let fitted = Runtime.Calibrate.fit progs in
  let show label (m : Perf.Machine.t) =
    Printf.printf
      "%-11s %-24s flop %6.2f  mem %6.2f  intrinsic %6.2f  loop %6.2f  call \
       %6.2f\n"
      label m.Perf.Machine.name m.Perf.Machine.flop_cost m.Perf.Machine.mem_cost
      m.Perf.Machine.intrinsic_cost m.Perf.Machine.loop_overhead
      m.Perf.Machine.call_overhead
  in
  show "default:" Perf.Machine.default;
  show "calibrated:" fitted

(* ------------------------------------------------------------------ *)
(* The edit burst telemetry-overhead drives                           *)
(* ------------------------------------------------------------------ *)

(* A scripted editing session: the workload's assertions, then bursts
   of single-statement edit / undo / redo.  The edit replaces a
   statement with its own pretty-printed text — semantically identical
   but carrying fresh statement ids, which is exactly what an
   interactive edit looks like to the analyses. *)

let focus_unit_of sess =
  let name = Ped.Session.unit_name sess in
  List.find
    (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
    (Ped.Session.program sess).Ast.punits

let first_assign sess =
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match (acc, s.Ast.node) with
      | None, Ast.Assign _ -> Some s
      | _ -> acc)
    None (focus_unit_of sess).Ast.body

let ok_exn what = function Ok _ -> () | Error e -> failwith (what ^ ": " ^ e)

let edit_burst sess =
  match first_assign sess with
  | None -> ()
  | Some s ->
    let text = Pretty.stmt_to_string s in
    ok_exn "edit" (Ped.Session.edit_stmt sess s.Ast.sid text);
    ok_exn "undo" (Ped.Session.undo sess);
    ok_exn "redo" (Ped.Session.redo sess)

let drive_asserts sess (w : Workloads.t) =
  List.iter
    (fun cmd -> ignore (Ped.Command.run sess cmd))
    w.Workloads.assertion_script

let drive_bursts sess ~bursts =
  for _ = 1 to bursts do
    edit_burst sess
  done

(* ------------------------------------------------------------------ *)
(* telemetry-overhead: cost of the observability layer on the         *)
(* analysis path — the same edit-burst workload driven under a null   *)
(* (disabled) sink, a counters-only sink and a full recording sink.   *)
(* The disabled hot path is also measured directly, per call, and     *)
(* converted into an implied workload overhead: that number is the    *)
(* <2% gate, since there is no uninstrumented build to diff against.  *)
(* ------------------------------------------------------------------ *)

let telemetry_overhead () =
  header
    "telemetry-overhead: analysis cost under disabled / counters / \
     recording telemetry";
  (* per-call cost of the disabled (null-sink) hot path *)
  let null = Telemetry.null in
  let dead = Telemetry.counter null "bench.dead" in
  let per_op reps f =
    let t0 = Telemetry.now_ns () in
    for _ = 1 to reps do
      f ()
    done;
    Int64.to_float (Int64.sub (Telemetry.now_ns ()) t0) /. float_of_int reps
  in
  let ops = 10_000_000 in
  let ns_counter = per_op ops (fun () -> Telemetry.incr dead) in
  let ns_span = per_op ops (fun () -> Telemetry.span null "x" Fun.id) in
  Printf.printf "disabled hot path: %.2f ns/incr, %.2f ns/span\n" ns_counter
    ns_span;
  (* the edit-burst workload under one sink; returns seconds *)
  let drive sink =
    Telemetry.set_default sink;
    let t0 = now_s () in
    List.iter
      (fun (w : Workloads.t) ->
        let sess =
          Ped.Session.load ~telemetry:sink (Workloads.program w)
            ~unit_name:(Workloads.main_unit w)
        in
        drive_asserts sess w;
        drive_bursts sess ~bursts:1)
      Workloads.all;
    let dt = now_s () -. t0 in
    Telemetry.set_default Telemetry.null;
    dt
  in
  let median xs =
    let a = List.sort compare xs in
    List.nth a (List.length a / 2)
  in
  let reps = 5 in
  (* warm up allocators and code paths once, then interleave the modes
     so drift hits all three equally *)
  ignore (drive Telemetry.null);
  let disabled = ref [] and counters = ref [] and recording = ref [] in
  let spans_per_rep = ref 0 in
  for _ = 1 to reps do
    disabled := drive Telemetry.null :: !disabled;
    counters := drive (Telemetry.make ()) :: !counters;
    let r = Telemetry.make ~record_spans:true () in
    recording := drive r :: !recording;
    spans_per_rep := List.length (Telemetry.spans r)
  done;
  let d = median !disabled
  and c = median !counters
  and r = median !recording in
  let pct x = (x -. d) /. d *. 100. in
  (* implied cost of the disabled instrumentation: every span is two
     no-op calls' worth, every counter flush one *)
  let implied_ns = float_of_int !spans_per_rep *. ns_span in
  let disabled_pct = implied_ns /. (d *. 1e9) *. 100. in
  Printf.printf "%-10s %10s %10s\n" "mode" "median-ms" "overhead";
  Printf.printf "%-10s %10.2f %9.2f%%\n" "disabled" (d *. 1e3) disabled_pct;
  Printf.printf "%-10s %10.2f %9.2f%%\n" "counters" (c *. 1e3) (pct c);
  Printf.printf "%-10s %10.2f %9.2f%%\n" "recording" (r *. 1e3) (pct r);
  Printf.printf "(%d spans per rep when recording)\n" !spans_per_rep;
  {
    fields =
      Some
        [
          ("reps", Jout.Int reps);
          ("ns_per_disabled_counter", Jout.Float ns_counter);
          ("ns_per_disabled_span", Jout.Float ns_span);
          ("spans_per_rep", Jout.Int !spans_per_rep);
          ( "median_seconds",
            Jout.Obj
              [
                ("disabled", Jout.Float d);
                ("counters", Jout.Float c);
                ("recording", Jout.Float r);
              ] );
          ( "overhead_pct",
            Jout.Obj
              [
                ("disabled", Jout.Float disabled_pct);
                ("counters", Jout.Float (pct c));
                ("recording", Jout.Float (pct r));
              ] );
          ("disabled_overhead_lt_2pct", Jout.Bool (disabled_pct < 2.));
        ];
    gates =
      [
        ( "disabled-overhead",
          check (disabled_pct < 2.)
            (Printf.sprintf "disabled overhead %.2f%% >= 2%%" disabled_pct) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* precision: the analysis-precision dashboard.  Per-tier disproval /  *)
(* assumed / proven counts over every unit of the workload corpus      *)
(* (straight from the DDGs' provenance records), plus the dependence   *)
(* oracle's spurious-edge rate attributed to the deciding tier over a  *)
(* generated corpus.  Written as BENCH_precision.json for CI trends.   *)
(* ------------------------------------------------------------------ *)

let precision () =
  header
    "Precision dashboard: which tier decides, what is assumed, what the \
     oracle refutes";
  let p = Explain.Precision.create () in
  List.iter
    (fun (w : Workloads.t) ->
      let sess =
        Ped.Session.load (Workloads.program w)
          ~unit_name:(Workloads.main_unit w)
      in
      List.iter
        (fun (u : Ast.program_unit) ->
          match Ped.Session.focus sess u.Ast.uname with
          | Ok () ->
            let ddg = Ped.Session.ddg sess in
            List.iter
              (fun (tier, n) ->
                Explain.Precision.add p ~tier Explain.Provenance.Disproved n)
              (Ddg.disproved_by_tier ddg);
            List.iter
              (fun (tier, n) ->
                Explain.Precision.add p ~tier Explain.Provenance.Assumed n)
              (Ddg.assumed_by_tier ddg);
            List.iter
              (fun (tier, n) ->
                Explain.Precision.add p ~tier Explain.Provenance.Proven n)
              (Ddg.proven_by_tier ddg)
          | Error _ -> ())
        (Ped.Session.program sess).Ast.punits)
    Workloads.all;
  let cfg =
    {
      Oracle.Driver.default with
      Oracle.Driver.n = 150;
      seed = 42;
      oracles = [ Oracle.Driver.Dep ];
      progress = ignore;
    }
  in
  let t0 = now_s () in
  let s = Oracle.Driver.run cfg in
  let dt = now_s () -. t0 in
  List.iter
    (fun (tier, n) -> Explain.Precision.add_spurious p ~tier n)
    s.Oracle.Driver.dep_spurious_by_tier;
  Printf.printf "%-16s %10s %10s %10s %10s\n" "tier" "disproved" "assumed"
    "proven" "spurious";
  List.iter
    (fun (tier, dis, asm, prv, spu) ->
      Printf.printf "%-16s %10d %10d %10d %10d\n" tier dis asm prv spu)
    (Explain.Precision.rows p);
  Printf.printf
    "assumed fraction: %.4f over %d surviving edges (workload corpus)\n"
    (Explain.Precision.assumed_fraction p)
    (Explain.Precision.total_edges p);
  Printf.printf
    "oracle: %d fuzz programs, %d edges realized, %d spurious (%.1fs)\n"
    s.Oracle.Driver.programs s.Oracle.Driver.dep_realized
    s.Oracle.Driver.dep_spurious dt;
  {
    fields =
      Some
        [
          ("fuzz_programs", Jout.Int s.Oracle.Driver.programs);
          ("oracle_realized", Jout.Int s.Oracle.Driver.dep_realized);
          ("oracle_spurious", Jout.Int s.Oracle.Driver.dep_spurious);
          ("dashboard", Jout.Raw (Explain.Precision.to_json p));
        ];
    gates = [];
  }

(* ------------------------------------------------------------------ *)
(* parscale: the parallel analyzer - Ddg.compute ?runner across a      *)
(* domain pool vs the sequential build                                 *)
(* ------------------------------------------------------------------ *)

(* The first-nest constant is what test_parscale's one-constant edit
   changes; here it stays 1.0. *)
let parscale_env ~nests =
  let src = Workloads.wide_nests ~nests ~seed_const:1.0 in
  let program =
    Ast.renumber_program (Parser.parse_program ~file:"parsc.f" src)
  in
  Depenv.make (Unit_syntax.build (List.hd program.Ast.punits))

let best_of reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = now_s () in
    let r = f () in
    let s = now_s () -. t0 in
    if s < !best then best := s;
    result := Some r
  done;
  (Option.get !result, !best)

let parscale () =
  header
    "parscale: from-scratch dependence analysis fanned across the domain \
     pool (Ddg.compute ?runner) vs sequential";
  let nests = 24 in
  let reps = 5 in
  let env = parscale_env ~nests in
  let plan = Ddg.plan env in
  let tasks = Array.length (Ddg.tasks plan) in
  let seq, seq_s = best_of reps (fun () -> Ddg.compute env) in
  let seq_digest = Ddg.digest seq in
  Printf.printf
    "stress unit: %d nests, %d bucket tasks, %d reference pairs\n" nests
    tasks seq.Ddg.stats.Ddg.pairs_tested;
  Printf.printf "%-8s %10s %8s %5s\n" "domains" "ms" "speedup" "same";
  Printf.printf "%-8s %10.2f %8s %5s\n" "seq" (seq_s *. 1e3) "1.0x" "yes";
  let rows =
    List.map
      (fun domains ->
        Runtime.Pool.with_pool domains (fun pool ->
            let runner = Runtime.Pool.analysis_runner pool in
            let g, s = best_of reps (fun () -> Ddg.compute ~runner env) in
            let identical = Ddg.digest g = seq_digest && Ddg.equal seq g in
            let speedup = seq_s /. Float.max 1e-9 s in
            Printf.printf "%-8d %10.2f %7.1fx %5s\n" domains (s *. 1e3)
              speedup
              (if identical then "yes" else "NO");
            (domains, s, speedup, identical)))
      [ 1; 2; 4; 8 ]
  in
  let cores = Domain.recommended_domain_count () in
  let all_identical = List.for_all (fun (_, _, _, i) -> i) rows in
  let speedup4 =
    match List.find_opt (fun (d, _, _, _) -> d = 4) rows with
    | Some (_, _, sp, _) -> sp
    | None -> 0.
  in
  {
    fields =
      Some
        [
          ("nests", Jout.Int nests);
          ("bucket_tasks", Jout.Int tasks);
          ("pairs_tested", Jout.Int seq.Ddg.stats.Ddg.pairs_tested);
          ("recommended_domains", Jout.Int cores);
          ("sequential_seconds", Jout.Float seq_s);
          ( "parallel",
            Jout.List
              (List.map
                 (fun (d, s, sp, i) ->
                   Jout.Obj
                     [
                       ("domains", Jout.Int d);
                       ("seconds", Jout.Float s);
                       ("speedup", Jout.Float sp);
                       ("identical", Jout.Bool i);
                     ])
                 rows) );
          ("all_identical", Jout.Bool all_identical);
        ];
    gates =
      [
        ( "identity",
          check all_identical "parallel DDGs diverged from the sequential build"
        );
        (* only meaningful with cores to spare; a single-core host
           still checks identity *)
        ( "speedup",
          if cores < 2 then
            single_core cores "speedup gate skipped, identity gate enforced"
          else
            check (speedup4 >= 1.0)
              (Printf.sprintf
                 "4-domain analysis slower than sequential (%.2fx) on a \
                  %d-core machine"
                 speedup4 cores) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* perfdiag: every performance detector fires on a dedicated trigger   *)
(* ------------------------------------------------------------------ *)

(* One synthetic kernel per detector, each built so the ratio its
   detector thresholds on is forced by construction rather than by
   machine speed: quadratically skewed work for imbalance, a tiny
   loop forked hundreds of times for granularity, a large write-only
   (hence privatizable) scratch array for privatization cost, a
   dominant first-order recurrence for serial fraction, and unpriced
   per-worker array copies dragging measured speedup far below the
   estimator's promise for prediction mismatch.  The control kernel
   is rectangular, coarse and copy-free: every detector must stay
   quiet on it. *)

(* Outer loop parallel; iteration I does O(I^2) work, so under chunk
   scheduling the upper half of the iteration space carries ~7x the
   work of the lower half. *)
let perfdiag_imbalance_src ~n =
  Printf.sprintf
    "      PROGRAM PDIMB\n\
     \      INTEGER N\n\
     \      PARAMETER (N = %d)\n\
     \      REAL A(N)\n\
     \      INTEGER I, J\n\
     \      DO I = 1, N\n\
     \        A(I) = 0.0\n\
     \      ENDDO\n\
     \      DO I = 1, N\n\
     \        DO J = 1, I * I\n\
     \          A(I) = A(I) + FLOAT(J) * 0.5\n\
     \        ENDDO\n\
     \      ENDDO\n\
     \      PRINT *, A(N)\n\
     \      END\n"
    n

(* A trip-8 trivial-body parallel loop forked [r] times from a serial
   outer loop: fork/join latency dwarfs the per-fork body. *)
let perfdiag_granularity_src ~r =
  Printf.sprintf
    "      PROGRAM PDGRAN\n\
     \      INTEGER N, R\n\
     \      PARAMETER (N = 8, R = %d)\n\
     \      REAL A(N)\n\
     \      INTEGER I, K\n\
     \      DO I = 1, N\n\
     \        A(I) = 0.0\n\
     \      ENDDO\n\
     \      DO K = 1, R\n\
     \        DO I = 1, N\n\
     \          A(I) = A(I) + 1.0\n\
     \        ENDDO\n\
     \      ENDDO\n\
     \      PRINT *, A(1)\n\
     \      END\n"
    r

(* T is written and never read, so the plan privatizes it — and every
   one of the [r] executions copies all [m] elements into (and back
   out of) each worker, against a 4-iteration two-statement body. *)
let perfdiag_privatization_src ~m ~r =
  Printf.sprintf
    "      PROGRAM PDPRIV\n\
     \      INTEGER N, M, R\n\
     \      PARAMETER (N = 4, M = %d, R = %d)\n\
     \      REAL A(N), T(M)\n\
     \      INTEGER I, K\n\
     \      DO I = 1, N\n\
     \        A(I) = 0.0\n\
     \      ENDDO\n\
     \      DO K = 1, R\n\
     \        DO I = 1, N\n\
     \          T(I) = FLOAT(I + K)\n\
     \          A(I) = A(I) + FLOAT(I) * 0.5\n\
     \        ENDDO\n\
     \      ENDDO\n\
     \      PRINT *, A(1), A(N)\n\
     \      END\n"
    m r

(* A first-order recurrence over [n] elements dominates the run; the
   only parallel loop is a trivial 64-trip tail. *)
let perfdiag_serial_src ~n =
  Printf.sprintf
    "      PROGRAM PDSER\n\
     \      INTEGER N, M\n\
     \      PARAMETER (N = %d, M = 64)\n\
     \      REAL A(N), B(M)\n\
     \      INTEGER I\n\
     \      A(1) = 1.0\n\
     \      DO I = 2, N\n\
     \        A(I) = A(I-1) * 0.9 + FLOAT(I)\n\
     \      ENDDO\n\
     \      DO I = 1, M\n\
     \        B(I) = FLOAT(I) * 2.0\n\
     \      ENDDO\n\
     \      PRINT *, A(N), B(M)\n\
     \      END\n"
    n

(* The estimator prices the coarse W=150 inner body and a 200-cycle
   fork, promising ~2x — but not the per-worker copy of the [m]-element
   privatized scratch array repeated every one of the [r] executions,
   which sinks the measured speedup below half the promise. *)
let perfdiag_mismatch_src ~m ~r =
  Printf.sprintf
    "      PROGRAM PDMIS\n\
     \      INTEGER N, M, R, W\n\
     \      PARAMETER (N = 32, M = %d, R = %d, W = 150)\n\
     \      REAL A(N), T(M)\n\
     \      INTEGER I, J, K\n\
     \      DO I = 1, N\n\
     \        A(I) = 0.0\n\
     \      ENDDO\n\
     \      DO K = 1, R\n\
     \        DO I = 1, N\n\
     \          T(I) = FLOAT(I + K)\n\
     \          DO J = 1, W\n\
     \            A(I) = A(I) + FLOAT(J) * 0.5\n\
     \          ENDDO\n\
     \        ENDDO\n\
     \      ENDDO\n\
     \      PRINT *, A(N)\n\
     \      END\n"
    m r

(* Balanced control: rectangular work, one coarse fork, no private
   arrays, no recurrence — every detector must stay silent. *)
let perfdiag_control_src ~m =
  Printf.sprintf
    "      PROGRAM PDCTL\n\
     \      INTEGER N, M\n\
     \      PARAMETER (N = 64, M = %d)\n\
     \      REAL A(N)\n\
     \      INTEGER I, J\n\
     \      DO I = 1, N\n\
     \        A(I) = 0.0\n\
     \      ENDDO\n\
     \      DO I = 1, N\n\
     \        DO J = 1, M\n\
     \          A(I) = A(I) + FLOAT(J) * 0.5\n\
     \        ENDDO\n\
     \      ENDDO\n\
     \      PRINT *, A(N)\n\
     \      END\n"
    m

type diag_case = {
  dc_name : string;
  dc_kind : Perfdebug.Detect.kind option;
      (* the detector this kernel must trip; None = control, which
         must instead stay silent *)
  dc_gated : bool;  (* enforce only when the host has >= domains cores *)
  dc_source : string;
}

let perfdiag_cases =
  [
    {
      dc_name = "imbalance";
      dc_kind = Some Perfdebug.Detect.Imbalance;
      (* on one core the light worker's wall span stretches across the
         heavy worker's timeslices, hiding the spread *)
      dc_gated = true;
      dc_source = perfdiag_imbalance_src ~n:64;
    };
    {
      dc_name = "granularity";
      dc_kind = Some Perfdebug.Detect.Granularity;
      dc_gated = false;
      dc_source = perfdiag_granularity_src ~r:300;
    };
    {
      dc_name = "privatization";
      dc_kind = Some Perfdebug.Detect.Privatization;
      dc_gated = false;
      dc_source =
        perfdiag_privatization_src
          ~m:200_000 ~r:30;
    };
    {
      dc_name = "serial";
      dc_kind = Some Perfdebug.Detect.Serial_fraction;
      dc_gated = false;
      dc_source = perfdiag_serial_src ~n:60_000;
    };
    {
      dc_name = "mismatch";
      dc_kind = Some Perfdebug.Detect.Prediction_mismatch;
      (* mismatch needs a trusted measurement, which analyze only
         grants when the host really has [domains] cores *)
      dc_gated = true;
      dc_source =
        perfdiag_mismatch_src
          ~m:400_000 ~r:30;
    };
    {
      dc_name = "control";
      dc_kind = None;
      (* on an oversubscribed single core, wall-clock spans of
         timesliced workers can fake a spread *)
      dc_gated = true;
      dc_source = perfdiag_control_src ~m:1500;
    };
  ]

let kind_slug = function
  | Perfdebug.Detect.Imbalance -> "imbalance"
  | Perfdebug.Detect.Granularity -> "granularity"
  | Perfdebug.Detect.Privatization -> "privatization"
  | Perfdebug.Detect.Serial_fraction -> "serial-fraction"
  | Perfdebug.Detect.Prediction_mismatch -> "prediction-mismatch"

(* Parse, auto-parallelize every safe loop (the same pipeline as
   ped --execute), hand back the annotated program. *)
let diag_parallelized ~name source =
  let program =
    Ast.renumber_program (Parser.parse_program ~file:(name ^ ".f") source)
  in
  let sess =
    Ped.Session.load program ~unit_name:(Ast.entry_unit program).Ast.uname
  in
  ignore (Ped.Session.parallelize_safe_loops sess);
  Ped.Session.program sess

let perfdiag () =
  header
    "perfdiag: rule-based performance diagnosis - each detector must fire \
     on its dedicated synthetic kernel and stay silent on the balanced \
     control";
  let cores = Domain.recommended_domain_count () in
  let domains = 2 in
  let schedule = Runtime.Pool.Chunk in
  Printf.printf "%-14s %9s %9s %10s %-24s %s\n" "kernel" "seq ms" "par ms"
    "predicted" "fired" "verdict";
  let rows =
    List.map
      (fun c ->
        let prog = diag_parallelized ~name:c.dc_name c.dc_source in
        let d = Perfdebug.Driver.diagnose ~domains ~schedule prog in
        let kinds = Perfdebug.Driver.kinds d in
        let enforced = (not c.dc_gated) || cores >= domains in
        let ok =
          match c.dc_kind with
          | Some k -> List.mem k kinds
          | None -> kinds = []
        in
        let verdict =
          if ok then "ok"
          else if enforced then "FAIL"
          else "miss (not enforced)"
        in
        Printf.printf "%-14s %9.2f %9.2f %9.2fx %-24s %s\n" c.dc_name
          (d.Perfdebug.Driver.seq_wall *. 1e3)
          (d.Perfdebug.Driver.par_wall *. 1e3)
          d.Perfdebug.Driver.predicted
          (if kinds = [] then "-"
           else String.concat "," (List.map kind_slug kinds))
          verdict;
        (c, d, kinds, ok, enforced))
      perfdiag_cases
  in
  let case_json (c, (d : Perfdebug.Driver.t), kinds, ok, enforced) =
    Jout.Obj
      [
        ("name", Jout.Str c.dc_name);
        ( "expected",
          match c.dc_kind with
          | Some k -> Jout.Str (kind_slug k)
          | None -> Jout.Str "silence" );
        ("fired", Jout.List (List.map (fun k -> Jout.Str (kind_slug k)) kinds));
        ("pass", Jout.Bool ok);
        ("enforced", Jout.Bool enforced);
        ("seq_wall_s", Jout.Float d.Perfdebug.Driver.seq_wall);
        ("par_wall_s", Jout.Float d.Perfdebug.Driver.par_wall);
        ("predicted", Jout.Float d.Perfdebug.Driver.predicted);
        ( "measured",
          match d.Perfdebug.Driver.measured with
          | Some m -> Jout.Float m
          | None -> Jout.Null );
        ( "parallel_coverage",
          Jout.Float
            (Perfdebug.Profile.parallel_coverage d.Perfdebug.Driver.profile) );
        ( "findings",
          Jout.List
            (List.map
               (fun (f : Perfdebug.Detect.finding) ->
                 Jout.Obj
                   [
                     ("kind", Jout.Str (kind_slug f.Perfdebug.Detect.f_kind));
                     ( "loop",
                       match f.Perfdebug.Detect.f_loop with
                       | Some sid -> Jout.Str (Printf.sprintf "s%d" sid)
                       | None -> Jout.Null );
                     ("score", Jout.Float f.Perfdebug.Detect.f_score);
                     ("summary", Jout.Str f.Perfdebug.Detect.f_summary);
                   ])
               d.Perfdebug.Driver.findings) );
      ]
  in
  let gate (c, _, kinds, ok, enforced) =
    let fired =
      if kinds = [] then "nothing"
      else String.concat "," (List.map kind_slug kinds)
    in
    ( c.dc_name,
      if not enforced then
        single_core cores
          "checks needing real concurrency (imbalance, mismatch, control \
           silence) reported but not enforced"
      else
        check ok
          (match c.dc_kind with
          | Some k ->
            Printf.sprintf "kernel %s did not trip the %s detector (fired: %s)"
              c.dc_name (kind_slug k) fired
          | None -> "control kernel must be silent but fired " ^ fired) )
  in
  {
    fields =
      Some
        [
          ("cores", Jout.Int cores);
          ("domains", Jout.Int domains);
          ("schedule", Jout.Str (Runtime.Pool.schedule_to_string schedule));
          ("cases", Jout.List (List.map case_json rows));
          ( "all_pass",
            Jout.Bool
              (List.for_all (fun (_, _, _, ok, enf) -> ok || not enf) rows) );
        ];
    gates = List.map gate rows;
  }

(* ------------------------------------------------------------------ *)

let experiments =
  [
    table "table1" table1;
    table "table2" table2;
    table "table3" table3;
    table "table4" table4;
    table "table5" table5;
    (* table6 is the only experiment with two sizes, and CI runs the
       small one.  The full table is the paper's: 17 kernels, 1/2/4/8
       domains.  On a 2-core VM its >= 5x compiled-speedup gate reads
       2.7-3.0x, because a few kernels (redblack, gauss, sympro) run
       slower compiled than interpreted at one domain, while matmul alone
       reads 11-17x.  So CI on the full table would fail on such hosts,
       and keeping only matmul would drop 16 kernels from the paper
       table. *)
    { name = "table6"; run = (fun () -> table6_run ~smoke:false "table6") };
    {
      name = "table6-smoke";
      run = (fun () -> table6_run ~smoke:true "table6-smoke");
    };
    table "calibrate" calibrate_exp;
    table "fig1" fig1;
    table "fig2" fig2;
    table "fig3" fig3;
    table "fig4" fig4;
    table "ablation" ablation;
    { name = "precision"; run = precision };
    { name = "parscale"; run = parscale };
    { name = "perfdiag"; run = perfdiag };
    { name = "telemetry-overhead"; run = telemetry_overhead };
  ]

let gate_json = function
  | Pass -> Jout.Obj [ ("status", Jout.Str "pass") ]
  | Fail r -> Jout.Obj [ ("status", Jout.Str "fail"); ("reason", Jout.Str r) ]
  | Skipped r ->
    Jout.Obj [ ("status", Jout.Str "skipped"); ("reason", Jout.Str r) ]

(* Run one experiment, write its JSON, print each distinct skip reason
   once as a note; return its failed gates. *)
let run_experiment e =
  let r = e.run () in
  Option.iter
    (fun fields ->
      let gates = List.map (fun (g, v) -> (g, gate_json v)) r.gates in
      Jout.write
        ("BENCH_" ^ e.name ^ ".json")
        (Jout.Obj
           ((("experiment", Jout.Str e.name) :: fields)
           @ [ ("gates", Jout.Obj gates) ])))
    r.fields;
  let notes =
    List.filter_map (function _, Skipped m -> Some m | _ -> None) r.gates
  in
  List.iter (Printf.printf "note: %s\n") (List.sort_uniq compare notes);
  List.filter_map
    (function g, Fail m -> Some (e.name, g, m) | _ -> None)
    r.gates

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let find n = List.find_opt (fun e -> String.equal e.name n) experiments in
  let unknown = List.filter (fun n -> Option.is_none (find n)) args in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment %s (have: %s)\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map (fun e -> e.name) experiments));
    exit 2
  end;
  let chosen =
    if args = [] then experiments else List.filter_map find args
  in
  let failed = List.concat_map run_experiment chosen in
  List.iter
    (fun (name, g, m) -> Printf.eprintf "%s: gate %s failed: %s\n" name g m)
    failed;
  if failed <> [] then exit 1
