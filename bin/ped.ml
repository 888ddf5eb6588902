(* The ParaScope Editor, command-line edition.

   Usage:
     ped FILE.f [-u UNIT] [-s SCRIPT] [--no-interproc]
     ped -w WORKLOAD [-s SCRIPT]
     ped [-w WORKLOAD] --execute [--domains N] [--schedule chunk|self]
         [--validate] [--force-parallel]
     ped ... [--profile] [--trace out.json]
     ped --calibrate
     ped fuzz [--n N] [--seed N] [--oracle dep,sem,run,cg] [--corpus DIR]

   Without a script, reads commands from stdin (a REPL).  With one,
   executes the script and prints the transcript.  With --execute the
   program is auto-parallelized (or --force-parallel'd), run on real
   OCaml domains and checked against the sequential simulator; with no
   workload/file every built-in workload runs. *)

open Fortran_front

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

(* [parse_or_exit f] — [f ()], a parse (and maybe load) of a source
   file; a syntax, lexical or load error is reported with where it is,
   and ped exits 1 *)
let parse_or_exit f =
  match Parser.guard f with
  | Ok v -> v
  | Error msg | (exception Invalid_argument msg) ->
    prerr_endline ("error: " ^ msg);
    exit 1

let run_session sess script ~engine_stats =
  (match script with
  | Some path ->
    let lines =
      String.split_on_char '\n' (read_file path)
      |> List.filter (fun l ->
             let l = String.trim l in
             l <> "" && l.[0] <> '#')
    in
    List.iter print_endline (Ped.Command.script sess lines)
  | None ->
    print_endline "ParaScope Editor (type 'help' for commands, ctrl-d to quit)";
    (try
       while true do
         print_string "ped> ";
         let line = read_line () in
         if String.trim line = "quit" then raise End_of_file;
         print_endline (Ped.Command.run sess line)
       done
     with End_of_file -> print_endline "bye"));
  if engine_stats then print_endline (Ped.Session.engine_report sess)

(* ------------------------------------------------------------------ *)
(* Execute mode: run on the multicore runtime                          *)
(* ------------------------------------------------------------------ *)

(* Apply the assertion script, then mark every provably-safe loop of
   every unit PARALLEL DO — the editor's workflow, automated. *)
let auto_parallelize ?telemetry (program : Ast.program)
    (assertion_script : string list) =
  let sess =
    Ped.Session.load ?telemetry program
      ~unit_name:(Ast.entry_unit program).Ast.uname
  in
  List.iter (fun cmd -> ignore (Ped.Command.run sess cmd)) assertion_script;
  ignore (Ped.Session.parallelize_safe_loops sess);
  Ped.Session.program sess

(* The validator's static predictor: a (loop, variable, kind) -> dep id
   map over every unit's dependence graph, so each observed conflict is
   tagged with the static edge that foresaw it — or flagged unpredicted
   when no edge did. *)
let build_predictor ?telemetry (program : Ast.program) =
  let kind_str = function
    | Dependence.Ddg.Flow -> "flow"
    | Dependence.Ddg.Anti -> "anti"
    | Dependence.Ddg.Output -> "output"
    | Dependence.Ddg.Control -> "control"
  in
  let tag = Explain.Tag.create () in
  let sess =
    Ped.Session.load ?telemetry program
      ~unit_name:(Ast.entry_unit program).Ast.uname
  in
  List.iter
    (fun (u : Ast.program_unit) ->
      match Ped.Session.focus sess u.Ast.uname with
      | Ok () ->
        List.iter
          (fun (d : Dependence.Ddg.dep) ->
            match d.Dependence.Ddg.carrier with
            | Some loop ->
              Explain.Tag.add tag ~loop ~var:d.Dependence.Ddg.var
                ~kind:(kind_str d.Dependence.Ddg.kind)
                ~dep:d.Dependence.Ddg.dep_id
            | None -> ())
          (Ped.Session.ddg sess).Dependence.Ddg.deps
      | Error _ -> ())
    program.Ast.punits;
  fun loop var kind ->
    Explain.Tag.find tag ~loop ~var ~kind:(Runtime.Exec.kind_to_string kind)

(* (name, program, assertion script) targets of this invocation *)
let targets file workload =
  match (file, workload) with
  | Some path, _ ->
    let load () =
      let p = Parser.parse_program ~file:path (read_file path) in
      Result.iter_error invalid_arg (Ast.check_program_labels p);
      p
    in
    [ (Filename.basename path, parse_or_exit load, []) ]
  | None, Some wname when Workloads.is_stress_name wname -> (
    match Workloads.stress wname with
    | Ok p -> [ (wname, p, []) ]
    | Error e ->
      prerr_endline e;
      exit 1)
  | None, Some wname -> (
    match Workloads.by_name wname with
    | Some w ->
      [ (w.Workloads.name, Workloads.program w, w.Workloads.assertion_script) ]
    | None ->
      prerr_endline
        ("unknown workload (available: "
        ^ String.concat ", " Workloads.names
        ^ ", stress:PROFILE[@SCALE])");
      exit 1)
  | None, None ->
    List.map
      (fun (w : Workloads.t) ->
        (w.Workloads.name, Workloads.program w, w.Workloads.assertion_script))
      Workloads.all

(* --backend=compiled: the codegen pipeline instead of Runtime.Exec *)
let execute_one_compiled par_program ~domains ~schedule ~telemetry =
  let seq = Sim.Interp.run ~honor_parallel:false par_program in
  match Codegen.Compile.build ?telemetry par_program with
  | Error e ->
    Printf.printf "  compiled backend: %s\n%!"
      (Codegen.Compile.error_to_string e);
    false
  | Ok built -> (
    let run pool =
      Codegen.Compile.run ?telemetry built ~pool ~schedule
    in
    match
      Runtime.Pool.with_pool ?telemetry domains (fun pool ->
          run (Some pool))
    with
    | Error e ->
      Printf.printf "  compiled backend: %s\n%!"
        (Codegen.Compile.error_to_string e);
      false
    | Ok r ->
      let exact =
        r.Codegen.Compile.out_lines = seq.Sim.Interp.output
        && r.Codegen.Compile.store = seq.Sim.Interp.final_store
      in
      let close =
        Sim.Interp.outputs_match ~tol:1e-4 r.Codegen.Compile.out_lines
          seq.Sim.Interp.output
        && Sim.Interp.stores_match r.Codegen.Compile.store
             seq.Sim.Interp.final_store
      in
      Printf.printf
        "  %d domains, %s schedule (compiled %s): %.4fs, vs sequential \
         simulator: %s\n%!"
        domains
        (Runtime.Pool.schedule_to_string schedule)
        built.Codegen.Compile.module_name r.Codegen.Compile.wall_s
        (if exact then "identical"
         else if close then "matching (within rounding)"
         else "MISMATCH");
      List.iter
        (fun l -> Printf.printf "  | %s\n" l)
        r.Codegen.Compile.out_lines;
      exact || close)

let execute_one name program script ~domains ~schedule ~validate
    ~force_parallel ~backend ~telemetry =
  let par_program =
    if force_parallel then Runtime.Exec.force_parallel program
    else auto_parallelize ?telemetry program script
  in
  let n_parallel =
    List.fold_left
      (fun acc (u : Ast.program_unit) ->
        Ast.fold_stmts
          (fun acc (s : Ast.stmt) ->
            match s.Ast.node with
            | Ast.Do (h, _) when h.Ast.parallel -> acc + 1
            | _ -> acc)
          acc u.Ast.body)
      0 par_program.Ast.punits
  in
  Printf.printf "%s: %d PARALLEL DO loop%s%s\n%!" name n_parallel
    (if n_parallel = 1 then "" else "s")
    (if force_parallel then " (forced)" else "");
  let n_conflicts =
    if not validate then 0
    else begin
      let predict = build_predictor ?telemetry par_program in
      let v =
        Runtime.Exec.run ~validate:true ~predict ?telemetry par_program
      in
      (match v.Runtime.Exec.conflicts with
      | [] ->
        Printf.printf "  validator: no cross-iteration conflicts observed\n%!"
      | cs ->
        List.iter
          (fun c ->
            Printf.printf "  validator: %s\n%!"
              (Runtime.Exec.conflict_to_string c))
          cs);
      List.length v.Runtime.Exec.conflicts
    end
  in
  if backend = `Compiled then
    let ok =
      execute_one_compiled par_program ~domains ~schedule ~telemetry
    in
    force_parallel || (ok && n_conflicts = 0)
  else
  let seq = Sim.Interp.run ~honor_parallel:false program in
  let o = Runtime.Exec.run ~domains ~schedule ?telemetry par_program in
  let exact =
    o.Runtime.Exec.output = seq.Sim.Interp.output
    && o.Runtime.Exec.final_store = seq.Sim.Interp.final_store
  in
  (* printed values carry 6 significant digits, so cross-domain
     reduction reassociation can flip the last printed digit: compare
     output a decade looser than the raw final stores *)
  let close =
    Sim.Interp.outputs_match ~tol:1e-4 o.Runtime.Exec.output
      seq.Sim.Interp.output
    && Sim.Interp.stores_match o.Runtime.Exec.final_store
         seq.Sim.Interp.final_store
  in
  Printf.printf
    "  %d domains, %s schedule: %.4fs, %d statements, vs sequential \
     simulator: %s\n%!"
    domains
    (Runtime.Pool.schedule_to_string schedule)
    o.Runtime.Exec.wall_s o.Runtime.Exec.stmts_executed
    (if exact then "identical"
     else if close then "matching (within rounding)"
     else "MISMATCH");
  List.iter (fun l -> Printf.printf "  | %s\n" l) o.Runtime.Exec.output;
  (* a forced-parallel run is EXPECTED to conflict/mismatch; report only *)
  force_parallel || ((exact || close) && n_conflicts = 0)

let execute file workload domains schedule validate force_parallel backend
    ~telemetry =
  List.fold_left
    (fun acc (name, program, script) ->
      (match
         execute_one name program script ~domains ~schedule ~validate
           ~force_parallel ~backend ~telemetry
       with
      | ok -> ok
      | exception Runtime.Exec.Runtime_error m ->
        Printf.eprintf "error: %s: execution failed: %s\n%!" name m;
        false)
      && acc)
    true
    (targets file workload)

(* --diagnose: run the performance debugger over each target — a
   sequential baseline plus an instrumented parallel run, then the
   detector rules — and print the ranked findings. *)
let diagnose_one name program script ~domains ~schedule ~backend ~telemetry =
  let par_program = auto_parallelize ?telemetry program script in
  Printf.printf "%s:\n%!" name;
  if backend = `Compiled then begin
    match Codegen.Compile.build ?telemetry par_program with
    | Error e ->
      Printf.printf "  compiled backend: %s\n%!"
        (Codegen.Compile.error_to_string e);
      false
    | Ok built -> (
      let sink = Telemetry.retained () in
      let seq = Codegen.Compile.run ?telemetry built ~pool:None ~schedule in
      let par =
        Runtime.Pool.with_pool ~telemetry:sink domains (fun pool ->
            Codegen.Compile.run ~telemetry:sink built ~pool:(Some pool)
              ~schedule)
      in
      match (seq, par) with
      | Ok s, Ok p ->
        let spans = Telemetry.drain_spans sink in
        let d =
          Perfdebug.Driver.analyze ~domains ~schedule
            ~seq_wall:s.Codegen.Compile.wall_s
            ~par_wall:p.Codegen.Compile.wall_s
            ~fallback_run_ns:(p.Codegen.Compile.wall_s *. 1e9)
            par_program spans
        in
        print_string (Perfdebug.Driver.render d);
        true
      | Error e, _ | _, Error e ->
        Printf.printf "  compiled backend: %s\n%!"
          (Codegen.Compile.error_to_string e);
        false)
  end
  else begin
    match Perfdebug.Driver.diagnose ~domains ~schedule par_program with
    | d ->
      print_string (Perfdebug.Driver.render d);
      true
    | exception Runtime.Exec.Runtime_error m ->
      Printf.printf "  runtime error: %s\n%!" m;
      false
  end

let diagnose_mode file workload domains schedule backend ~telemetry =
  List.fold_left
    (fun acc (name, program, script) ->
      diagnose_one name program script ~domains ~schedule ~backend ~telemetry
      && acc)
    true
    (targets file workload)

let calibrate_mode file workload =
  let ts = targets file workload in
  Printf.printf "calibrating on %d program%s...\n%!" (List.length ts)
    (if List.length ts = 1 then "" else "s");
  let machine =
    Runtime.Calibrate.fit (List.map (fun (_, p, _) -> p) ts)
  in
  let weights label (m : Perf.Machine.t) =
    Printf.printf
      "%s: flop %.2f  mem %.2f  intrinsic %.2f  loop %.2f  call %.2f\n" label
      m.Perf.Machine.flop_cost m.Perf.Machine.mem_cost
      m.Perf.Machine.intrinsic_cost m.Perf.Machine.loop_overhead
      m.Perf.Machine.call_overhead
  in
  weights "default   " Perf.Machine.default;
  weights "calibrated" machine

(* ------------------------------------------------------------------ *)

let main file workload unit_name script no_interproc exec domains schedule
    validate force_parallel backend analysis_domains order seed calibrate
    diagnose engine_stats profile trace metrics =
  (* one recording sink, installed as the process default, so the
     session, the transformation catalog, the analysis passes and the
     runtime workers all emit to the same place *)
  let sink =
    if profile || trace <> None || metrics <> None then begin
      let s = Telemetry.make ~record_spans:(profile || trace <> None) () in
      Telemetry.set_default s;
      Some s
    end
    else None
  in
  let finish ok =
    (match sink with
    | Some s ->
      if profile then print_string (Telemetry.profile_report s);
      Option.iter
        (fun path ->
          Telemetry.write_chrome_trace s path;
          Printf.printf
            "trace written to %s (open in chrome://tracing or \
             ui.perfetto.dev)\n%!"
            path)
        trace;
      Option.iter
        (fun path ->
          let oc = open_out path in
          output_string oc (Telemetry.metrics_json s);
          output_char oc '\n';
          close_out oc;
          Printf.printf "metrics written to %s\n%!" path)
        metrics
    | None -> ());
    if not ok then exit 1
  in
  if calibrate then begin
    calibrate_mode file workload;
    finish true
  end
  else if diagnose then
    finish
      (diagnose_mode file workload domains schedule backend ~telemetry:sink)
  else if exec || validate || force_parallel then
    finish
      (execute file workload domains schedule validate force_parallel backend
         ~telemetry:sink)
  else begin
    let interproc = not no_interproc in
    (* the analysis pool outlives the session (every re-analysis after
       an edit fans out through it) but not [finish], so the trace
       sees the worker lanes of a fully shut-down pool *)
    let with_runner f =
      if analysis_domains <= 1 then f None
      else
        Runtime.Pool.with_pool ?telemetry:sink analysis_domains (fun pool ->
            f (Some (Runtime.Pool.analysis_runner pool)))
    in
    with_runner (fun runner ->
        let sess =
          match (file, workload) with
          | Some path, _ ->
            parse_or_exit (fun () ->
                Ped.Session.load_source ~interproc ?runner ?telemetry:sink
                  ~file:path (read_file path)
                  ~unit_name:(Option.map String.uppercase_ascii unit_name))
          | None, Some wname when Workloads.is_stress_name wname -> (
            match Workloads.stress wname with
            | Ok program ->
              let unit_name =
                match unit_name with
                | Some u -> String.uppercase_ascii u
                | None -> (Ast.entry_unit program).Ast.uname
              in
              Ped.Session.load ~interproc ?runner ?telemetry:sink program
                ~unit_name
            | Error e ->
              prerr_endline e;
              exit 1)
          | None, Some wname -> (
            match Workloads.by_name wname with
            | Some w ->
              let unit_name =
                match unit_name with
                | Some u -> String.uppercase_ascii u
                | None -> Workloads.main_unit w
              in
              Ped.Session.load ~interproc ?runner ?telemetry:sink
                (Workloads.program w) ~unit_name
            | None ->
              prerr_endline
                ("unknown workload (available: "
                ^ String.concat ", " Workloads.names
                ^ ", stress:PROFILE[@SCALE])");
              exit 1)
          | None, None ->
            prerr_endline "give a Fortran file or a workload name (-w)";
            exit 1
        in
        (match order with
        | `Seq -> ()
        | `Reverse -> Ped.Session.set_sim_order sess Sim.Interp.Reverse
        | `Shuffle -> Ped.Session.set_sim_order sess (Sim.Interp.Shuffled seed));
        run_session sess script ~engine_stats);
    finish true
  end

open Cmdliner

(* Not positional: a [Cmd.group] reads the first positional argument
   as a sub-command name, so [ped FILE.f] would be rejected as an
   unknown command.  The driver below rewrites a leading non-option
   argument into [--file], keeping the documented usage working. *)
let file =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
         ~doc:"Fortran source file")

let workload =
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME"
         ~doc:"Load a built-in workload instead of a file")

let unit_name =
  Arg.(value & opt (some string) None & info [ "u"; "unit" ] ~docv:"UNIT"
         ~doc:"Focus this program unit (default: the main program)")

let script =
  Arg.(value & opt (some string) None & info [ "s"; "script" ] ~docv:"SCRIPT"
         ~doc:"Execute editor commands from this file and exit")

let no_interproc =
  Arg.(value & flag & info [ "no-interproc" ]
         ~doc:"Disable interprocedural analysis")

let exec_flag =
  Arg.(value & flag & info [ "execute" ]
         ~doc:"Auto-parallelize and run on the multicore runtime, checking \
               the result against the sequential simulator (all workloads \
               when no file or workload is given)")

(* Integers >= 1: a bad value is cmdliner's usage error, naming the
   flag. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error (Printf.sprintf "invalid value '%s', expected an integer >= 1" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let domains =
  Arg.(value & opt positive_int 4 & info [ "domains" ] ~docv:"N"
         ~doc:"Worker domains for --execute")

let analysis_domains =
  Arg.(value & opt positive_int 1 & info [ "analysis-domains" ] ~docv:"N"
         ~doc:"Fan dependence-test buckets of every analysis out across N \
               pool domains (1 = sequential analysis); the graphs are \
               identical either way")

let schedule =
  Arg.(value & opt (enum Runtime.Pool.schedule_names) Runtime.Pool.Chunk
       & info [ "schedule" ] ~docv:"POLICY" ~absent:"chunk"
         ~doc:"Iteration scheduling for --execute: chunk (contiguous blocks) \
               or self (atomic work counter); block and dynamic are aliases")

let validate =
  Arg.(value & flag & info [ "validate" ]
         ~doc:"Run the shadow-memory dependence validator over every \
               PARALLEL DO before executing")

let force_parallel =
  Arg.(value & flag & info [ "force-parallel" ]
         ~doc:"Mark every DO loop parallel, bypassing the analysis (for \
               exercising --validate on unsafe loops)")

let exec_backend =
  Arg.(value & opt (enum [ ("interp", `Interp); ("compiled", `Compiled) ]) `Interp
       & info [ "backend" ] ~docv:"NAME"
         ~doc:"Executor for --execute: interp (the interpreting runtime) or \
               compiled (native code via the codegen pipeline, checked \
               against the sequential simulator)")

let order =
  Arg.(value
       & opt (enum [ ("seq", `Seq); ("reverse", `Reverse); ("shuffle", `Shuffle) ]) `Seq
       & info [ "order" ] ~docv:"ORDER" ~absent:"seq"
         ~doc:"Iteration order for simulated parallel loops in the editor: \
               seq, reverse or shuffle")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
         ~doc:"Seed for --order shuffle")

let calibrate =
  Arg.(value & flag & info [ "calibrate" ]
         ~doc:"Fit the performance model's per-op weights from measured \
               runtime executions and print the machines")

let diagnose =
  Arg.(value & flag & info [ "diagnose" ]
         ~doc:"Run the performance debugger: execute each target twice (a \
               sequential baseline and an instrumented parallel run under \
               the selected backend) and print ranked diagnoses — load \
               imbalance, insufficient granularity, privatization cost, \
               serial fraction, prediction mismatch — with remediation \
               hints")

let engine_stats =
  Arg.(value & flag & info [ "engine-stats" ]
         ~doc:"Print incremental-analysis engine cache statistics on exit")

let profile =
  Arg.(value & flag & info [ "profile" ]
         ~doc:"Record telemetry spans and print an aggregated profile tree \
               (count, total and self time per span) on exit")

let trace =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Record telemetry spans and write a Chrome trace_event JSON \
               file on exit — one lane per OCaml domain; open it in \
               chrome://tracing or ui.perfetto.dev")

let metrics =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the telemetry counters (dependence-test disprovals per \
               tier, assumed/proven edges, cache hits, validator conflicts) \
               as JSON to FILE on exit")

(* ------------------------------------------------------------------ *)
(* fuzz subcommand: the differential-testing oracles                   *)
(* ------------------------------------------------------------------ *)

let fuzz_main n fseed oracle corpus no_shrink no_sequences small stress
    quiet =
  let oracles =
    String.split_on_char ',' oracle
    |> List.concat_map (fun o ->
           match String.trim (String.lowercase_ascii o) with
           | "dep" | "dependence" -> [ Oracle.Driver.Dep ]
           | "sem" | "semantics" -> [ Oracle.Driver.Sem ]
           | "run" | "runtime" -> [ Oracle.Driver.Run ]
           | "cg" | "codegen" -> [ Oracle.Driver.Cg ]
           | "all" -> [ Oracle.Driver.Dep; Oracle.Driver.Sem; Oracle.Driver.Run ]
           | other ->
             prerr_endline
               ("bad --oracle " ^ other ^ " (dep, sem, run, cg, or all)");
             exit 2)
  in
  let program_gen =
    match stress with
    | None -> None
    | Some name -> (
      match Oracle.Stress.by_name name with
      | Some p -> Some (Oracle.Stress.fuzz_gen p)
      | None ->
        prerr_endline
          ("bad --stress " ^ name ^ " (available: "
          ^ String.concat ", " Oracle.Stress.names
          ^ ")");
        exit 2)
  in
  let cfg =
    {
      Oracle.Driver.n;
      seed =
        Oracle.Driver.seed_of ~env:(Sys.getenv_opt "QCHECK_SEED") ~cli:fseed;
      oracles;
      corpus_dir = corpus;
      shrink = not no_shrink;
      sequences = not no_sequences;
      gen_cfg = (if small then Oracle.Gen.small else Oracle.Gen.default);
      program_gen;
      progress =
        (if quiet then ignore
         else fun m -> Printf.eprintf "  [fuzz] %s\n%!" m);
    }
  in
  let stats = Oracle.Driver.run cfg in
  print_string (Oracle.Driver.summary stats);
  if not (Oracle.Driver.ok stats) then exit 1

let fuzz_cmd =
  let n =
    Arg.(value & opt positive_int 200 & info [ "n"; "num" ] ~docv:"N"
           ~doc:"Programs to generate")
  in
  let fseed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N"
           ~doc:"Generator seed (default: $(b,QCHECK_SEED) from the \
                 environment, then 42)")
  in
  let oracle =
    Arg.(value & opt string "all" & info [ "oracle" ] ~docv:"LIST"
           ~doc:"Comma-separated oracles to run: dep (brute-force \
                 dependence), sem (transformation semantics), run \
                 (parallel runtime), cg (compile each program to native \
                 code and diff it against the interpreter; programs \
                 outside the compilable subset are skipped), or all (dep, \
                 sem and run)")
  in
  let corpus =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Save minimized counterexamples to this directory")
  in
  let no_shrink =
    Arg.(value & flag & info [ "unshrunk" ]
           ~doc:"Report counterexamples unminimized")
  in
  let no_sequences =
    Arg.(value & flag & info [ "skip-sequences" ]
           ~doc:"Skip composed transformation sequences")
  in
  let small =
    Arg.(value & flag & info [ "small" ]
           ~doc:"Generate smaller programs (smoke-test shape)")
  in
  let stress =
    Arg.(value & opt (some string) None & info [ "stress" ] ~docv:"PROFILE"
           ~doc:"Draw fuzz-scale multi-unit programs from this stress \
                 profile (deep, wide, many-units) instead of the \
                 single-unit generator")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No progress output") in
  let doc =
    "fuzz the analyses, transformations and runtime against brute-force \
     oracles"
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const fuzz_main $ n $ fseed $ oracle $ corpus $ no_shrink
          $ no_sequences $ small $ stress $ quiet)

(* ------------------------------------------------------------------ *)
(* stress subcommand: the stress-workload factory                      *)
(* ------------------------------------------------------------------ *)

let stress_main profile sseed pscale plines out list_profiles =
  if list_profiles then begin
    List.iter
      (fun p ->
        Printf.printf "%-12s %s\n" p.Oracle.Stress.sp_name
          p.Oracle.Stress.sp_desc)
      Oracle.Stress.all;
    exit 0
  end;
  let seed =
    Oracle.Driver.seed_of ~env:(Sys.getenv_opt "QCHECK_SEED") ~cli:sseed
  in
  match Oracle.Stress.by_name profile with
  | None ->
    prerr_endline
      ("unknown stress profile " ^ profile ^ " (available: "
      ^ String.concat ", " Oracle.Stress.names
      ^ ")");
    exit 2
  | Some p ->
    let p =
      match pscale with Some f -> Oracle.Stress.scale f p | None -> p
    in
    let p, src =
      match plines with
      | Some target -> Oracle.Stress.scale_to_lines ~seed ~target p
      | None -> (p, Oracle.Stress.source ~seed p)
    in
    let program = Oracle.Stress.generate ~seed p in
    (match out with
    | Some "-" -> print_string src
    | Some path ->
      let oc = open_out path in
      output_string oc src;
      close_out oc
    | None -> ());
    Printf.printf "stress %s seed=%d: units=%d lines=%d fingerprint=%s\n"
      p.Oracle.Stress.sp_name seed
      (List.length program.Ast.punits)
      (Oracle.Stress.lines src)
      (Oracle.Stress.fingerprint program)

let stress_cmd =
  let profile =
    Arg.(value & opt string "deep" & info [ "profile" ] ~docv:"PROFILE"
           ~doc:"Stress profile: deep, wide, or many-units")
  in
  let sseed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N"
           ~doc:"Generator seed (default: $(b,QCHECK_SEED) from the \
                 environment, then 42)")
  in
  let pscale =
    Arg.(value & opt (some float) None & info [ "scale" ] ~docv:"F"
           ~doc:"Multiply the profile's unit/nest counts by F")
  in
  let plines =
    Arg.(value & opt (some int) None & info [ "lines" ] ~docv:"N"
           ~doc:"Grow the unit count until the source reaches N lines")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
           ~doc:"Write the generated Fortran source here ($(b,-) for \
                 stdout)")
  in
  let list_profiles =
    Arg.(value & flag & info [ "list" ] ~doc:"List the profiles and exit")
  in
  let doc =
    "generate a deterministic stress program (its summary line carries the \
     cross-process fingerprint)"
  in
  Cmd.v (Cmd.info "stress" ~doc)
    Term.(const stress_main $ profile $ sseed $ pscale $ plines $ out
          $ list_profiles)

(* ------------------------------------------------------------------ *)
(* serve subcommand: the multi-session analysis server                 *)
(* ------------------------------------------------------------------ *)

let serve_main cache_dir cache_mb history_limit analysis_domains trace
    profile =
  let sink = Telemetry.make ~record_spans:(trace <> None || profile) () in
  Telemetry.set_default sink;
  let cache = Server.Cache.create ~telemetry:sink ~budget_mb:cache_mb () in
  (match cache_dir with
  | None -> ()
  | Some dir -> (
    match Server.Cache.load cache ~dir with
    | Ok 0 -> ()
    | Ok n ->
      Printf.eprintf "[serve] warmed %d ddg buckets from %s\n%!" n dir
    | Error e -> Printf.eprintf "[serve] %s\n%!" e));
  let with_runner f =
    if analysis_domains <= 1 then f None
    else
      Runtime.Pool.with_pool ~telemetry:sink analysis_domains (fun pool ->
          f (Some (Runtime.Pool.analysis_runner pool)))
  in
  with_runner (fun runner ->
      let srv =
        Server.Serve.create ~telemetry:sink ~cache ?runner ~history_limit ()
      in
      Server.Serve.serve srv stdin stdout);
  (match cache_dir with
  | None -> ()
  | Some dir -> (
    match Server.Cache.save cache ~dir with
    | Ok n -> Printf.eprintf "[serve] saved %d ddg buckets to %s\n%!" n dir
    | Error e -> Printf.eprintf "[serve] save failed: %s\n%!" e));
  if profile then print_string (Telemetry.profile_report sink);
  Option.iter
    (fun path ->
      Telemetry.write_chrome_trace sink path;
      Printf.eprintf
        "[serve] trace written to %s (one lane per session)\n%!" path)
    trace

let cache_dir =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Persist the shared dependence-test cache here: warmed on \
               start, saved on exit; a file from another format version is \
               rejected")

let cache_mb =
  Arg.(value & opt positive_int 256 & info [ "cache-mb" ] ~docv:"MB"
         ~doc:"LRU byte budget of the shared analysis cache")

let history_limit =
  Arg.(value & opt positive_int 1000 & info [ "history-limit" ] ~docv:"N"
         ~doc:"Undo-history bound per session (oldest entries dropped)")

let serve_cmd =
  let doc =
    "serve many editor sessions over stdin/stdout with one shared analysis \
     cache (line protocol: open/cmd/stats/sessions/cache/close/quit)"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const serve_main $ cache_dir $ cache_mb $ history_limit
          $ analysis_domains $ trace $ profile)

(* ------------------------------------------------------------------ *)
(* batch subcommand: stream edit-scripts through concurrent sessions   *)
(* ------------------------------------------------------------------ *)

let batch_main jobfile bdomains banalysis_domains repeat cache_dir cache_mb
    history_limit check trace quiet =
  match Server.Batch.parse_job_file jobfile with
  | Error e ->
    prerr_endline e;
    exit 2
  | Ok jobs ->
    let jobs =
      List.concat
        (List.init repeat (fun r ->
             if r = 0 then jobs
             else
               List.map
                 (fun (j : Server.Batch.job) ->
                   { j with Server.Batch.j_id =
                       Printf.sprintf "%s~%d" j.Server.Batch.j_id r })
                 jobs))
    in
    let sink = Telemetry.make ~record_spans:(trace <> None) () in
    Telemetry.set_default sink;
    let cache = Server.Cache.create ~telemetry:sink ~budget_mb:cache_mb () in
    (match cache_dir with
    | Some dir -> (
      match Server.Cache.load cache ~dir with
      | Ok 0 -> ()
      | Ok n ->
        if not quiet then
          Printf.eprintf "[batch] warmed %d ddg buckets from %s\n%!" n dir
      | Error e -> Printf.eprintf "[batch] %s\n%!" e)
    | None -> ());
    (match
       Server.Batch.run ~telemetry:sink ~cache ~domains:bdomains
         ~analysis_domains:banalysis_domains ~history_limit ~check jobs
     with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok o ->
      if not quiet then print_endline (Server.Batch.report o);
      (match cache_dir with
      | Some dir -> (
        match Server.Cache.save cache ~dir with
        | Ok n ->
          if not quiet then
            Printf.eprintf "[batch] saved %d ddg buckets to %s\n%!" n dir
        | Error e -> Printf.eprintf "[batch] save failed: %s\n%!" e)
      | None -> ());
      Option.iter
        (fun path ->
          Telemetry.write_chrome_trace sink path;
          if not quiet then
            Printf.eprintf "[batch] trace written to %s\n%!" path)
        trace;
      if o.Server.Batch.o_identical = Some false then exit 1)

let batch_cmd =
  let jobfile =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOBFILE"
           ~doc:"Job file: one $(b,FILE[#UNIT] :: cmd ; cmd) line per \
                 session")
  in
  let bdomains =
    Arg.(value & opt positive_int 1 & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains: 1 interleaves all sessions over one fully \
                 shared cache; more partitions jobs across domains, all \
                 sharing that cache")
  in
  let repeat =
    Arg.(value & opt positive_int 1 & info [ "repeat" ] ~docv:"N"
           ~doc:"Run the job list N times (duplicates exercise \
                 cross-session cache sharing)")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"Replay every job from scratch (no caching, no sharing) and \
                 require byte-identical dependence graphs; exit 1 on \
                 mismatch")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No report output") in
  let doc = "stream edit-script jobs through concurrent analysis sessions" in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(const batch_main $ jobfile $ bdomains $ analysis_domains $ repeat
          $ cache_dir $ cache_mb $ history_limit $ check $ trace $ quiet)

(* ------------------------------------------------------------------ *)
(* compile subcommand: the native code generation pipeline             *)
(* ------------------------------------------------------------------ *)

let compile_target ~sink ~out ~keep ~domains ~schedule ~no_run
    (name, program, script) =
  let par = auto_parallelize ?telemetry:sink program script in
  let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v in
  let result =
    let* () =
      match out with
      | None -> Ok ()
      | Some path ->
        let* src = Codegen.Compile.generate par in
        let oc = open_out path in
        output_string oc src;
        close_out oc;
        Printf.printf "%s: generated source written to %s\n%!" name path;
        Ok ()
    in
    let* built = Codegen.Compile.build ?telemetry:sink ~keep par in
    Printf.printf "%s: compiled as %s (%d IR statements)%s\n%!" name
      built.Codegen.Compile.module_name built.Codegen.Compile.ir_stmts
      (if keep then " [" ^ built.Codegen.Compile.src_file ^ "]" else "");
    if no_run then Ok true
    else begin
      let interp =
        try Ok (Sim.Interp.run ~honor_parallel:false par)
        with Sim.Interp.Runtime_error m ->
          Error (Codegen.Compile.Failed ("interpreter baseline: " ^ m))
      in
      let* interp = interp in
      let* s = Codegen.Compile.run ?telemetry:sink built ~pool:None ~schedule in
      let seq_ok =
        s.Codegen.Compile.out_lines = interp.Sim.Interp.output
        && s.Codegen.Compile.store = interp.Sim.Interp.final_store
      in
      Printf.printf "  sequential: %.4fs, vs simulator: %s\n%!"
        s.Codegen.Compile.wall_s
        (if seq_ok then "identical" else "MISMATCH");
      let* p =
        Runtime.Pool.with_pool ?telemetry:sink domains (fun pool ->
            Codegen.Compile.run ?telemetry:sink built ~pool:(Some pool)
              ~schedule)
      in
      let par_ok =
        Sim.Interp.outputs_match ~tol:1e-4 p.Codegen.Compile.out_lines
          interp.Sim.Interp.output
        && Sim.Interp.stores_match p.Codegen.Compile.store
             interp.Sim.Interp.final_store
      in
      Printf.printf "  %d domains, %s schedule: %.4fs, vs simulator: %s\n%!"
        domains
        (Runtime.Pool.schedule_to_string schedule)
        p.Codegen.Compile.wall_s
        (if par_ok then "matching" else "MISMATCH");
      List.iter
        (fun l -> Printf.printf "  | %s\n" l)
        p.Codegen.Compile.out_lines;
      Ok (seq_ok && par_ok)
    end
  in
  match result with
  | Ok ok -> ok
  | Error e ->
    Printf.printf "%s: %s\n%!" name (Codegen.Compile.error_to_string e);
    false

let compile_main file workload out keep cdomains schedule no_run
    profile trace =
  let sink =
    if profile || trace <> None then begin
      let s = Telemetry.make ~record_spans:true () in
      Telemetry.set_default s;
      Some s
    end
    else None
  in
  let ts = targets file workload in
  (match (out, ts) with
  | Some _, _ :: _ :: _ ->
    prerr_endline "-o needs a single program (give a file or -w)";
    exit 1
  | _ -> ());
  let ok =
    List.fold_left
      (fun acc t ->
        compile_target ~sink ~out ~keep ~domains:cdomains
          ~schedule ~no_run t
        && acc)
      true ts
  in
  (match sink with
  | Some s ->
    if profile then print_string (Telemetry.profile_report s);
    Option.iter (fun path -> Telemetry.write_chrome_trace s path) trace
  | None -> ());
  if not ok then exit 1

let compile_cmd =
  let cfile =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Fortran source file (default: every built-in workload)")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the generated OCaml source to FILE for inspection")
  in
  let keep =
    Arg.(value & flag & info [ "keep" ]
           ~doc:"Keep the scratch artifacts under .ped-codegen/ instead of \
                 deleting them after loading")
  in
  let no_run =
    Arg.(value & flag & info [ "no-run" ]
           ~doc:"Compile and load only; skip execution and the differential \
                 check against the simulator")
  in
  let doc =
    "auto-parallelize a program, compile it to native code through the \
     codegen backend, run it on real domains and check it against the \
     sequential simulator"
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const compile_main $ cfile $ workload $ out $ keep $ domains
          $ schedule $ no_run $ profile $ trace)

let cmd =
  let doc = "interactive parallel programming editor (ParaScope Editor)" in
  let default =
    Term.(const main $ file $ workload $ unit_name $ script $ no_interproc
          $ exec_flag $ domains $ schedule $ validate $ force_parallel
          $ exec_backend $ analysis_domains $ order $ seed $ calibrate
          $ diagnose $ engine_stats $ profile $ trace $ metrics)
  in
  Cmd.group ~default (Cmd.info "ped" ~doc)
    [ fuzz_cmd; stress_cmd; serve_cmd; batch_cmd; compile_cmd ]

let () =
  let argv =
    match Array.to_list Sys.argv with
    | exe :: a :: rest
      when a <> "fuzz" && a <> "stress" && a <> "serve" && a <> "batch"
           && a <> "compile"
           && String.length a > 0
           && a.[0] <> '-' ->
      Array.of_list (exe :: "--file" :: a :: rest)
    | _ -> Sys.argv
  in
  exit (Cmd.eval ~argv cmd)
