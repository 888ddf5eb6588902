open Fortran_front

type t = {
  findings : Detect.finding list;
  profile : Profile.t;
  seq_wall : float;   (* sequential baseline, seconds *)
  par_wall : float;   (* parallel run, seconds *)
  measured : float option;  (* None when the machine can't host the run *)
  predicted : float;  (* estimator's whole-unit promise *)
  domains : int;
  schedule : Runtime.Pool.schedule;
}

(* Static side of every diagnosis: for each PARALLEL DO, the
   estimator's per-loop promise and the execution plan's
   privatization shape, keyed by statement id. *)
let static_of ?(machine = Perf.Machine.default) ~summary ~processors
    (prog : Ast.program) : (int * Detect.loop_static) list =
  let plans = Runtime.Plan.build ~summary prog in
  List.concat_map
    (fun (u : Ast.program_unit) ->
      let env = Interproc.Summary.env_for summary u in
      let out = ref [] in
      Ast.iter_stmts
        (fun (s : Ast.stmt) ->
          match s.Ast.node with
          | Ast.Do (h, _) when h.Ast.parallel ->
            let predicted =
              Perf.Estimator.loop_speedup ~machine env s ~processors
            in
            let privates, arrays, reductions =
              match Hashtbl.find_opt plans s.Ast.sid with
              | Some (p : Runtime.Plan.t) ->
                ( List.length p.Runtime.Plan.p_privates,
                  List.length p.Runtime.Plan.p_arrays,
                  List.length p.Runtime.Plan.p_reductions )
              | None -> (0, 0, 0)
            in
            out :=
              ( s.Ast.sid,
                {
                  Detect.st_predicted = predicted;
                  st_privates = privates;
                  st_arrays = arrays;
                  st_reductions = reductions;
                } )
              :: !out
          | _ -> ())
        u.Ast.body;
      List.rev !out)
    prog.Ast.punits

let predicted_of ?(machine = Perf.Machine.default) ~summary ~processors
    (prog : Ast.program) : float =
  let env = Interproc.Summary.env_for summary (Ast.entry_unit prog) in
  Perf.Estimator.predicted_speedup ~machine env ~processors

(* The analysis core, shared by the interpreter path below and the
   compiled path (whose caller runs the program itself and hands the
   captured spans over). *)
let analyze ?config ?(machine = Perf.Machine.default) ~domains ~schedule
    ~seq_wall ~par_wall ?(fallback_run_ns = 0.0) prog spans : t =
  let profile = Profile.of_spans ~workers:domains ~fallback_run_ns spans in
  let summary = Interproc.Summary.analyze prog in
  let static = static_of ~machine ~summary ~processors:domains prog in
  let predicted = predicted_of ~machine ~summary ~processors:domains prog in
  let measured =
    if
      seq_wall > 0.0 && par_wall > 0.0
      && Domain.recommended_domain_count () >= domains
    then Some (seq_wall /. par_wall)
    else None
  in
  let speedup = Option.map (fun m -> (m, predicted)) measured in
  let findings =
    Detect.run ?config ~profile ~static
      ~fork_join_cycles:machine.Perf.Machine.fork_join ?speedup ()
  in
  { findings; profile; seq_wall; par_wall; measured; predicted; domains;
    schedule }

(* Interpreter path: a sequential baseline (parallel flags stripped —
   no pool, no fork cost), then the instrumented parallel run on a
   retained sink. *)
let diagnose ?config ?machine ?(domains = 4) ?(schedule = Runtime.Pool.Chunk)
    ?max_steps (prog : Ast.program) : t =
  let seq =
    Runtime.Exec.run ~domains:1 ?max_steps ~telemetry:Telemetry.null
      (Runtime.Exec.strip_parallel prog)
  in
  let sink = Telemetry.retained () in
  let par =
    Runtime.Exec.run ~domains ~schedule ?max_steps ~telemetry:sink prog
  in
  let spans = Telemetry.drain_spans sink in
  analyze ?config ?machine ~domains ~schedule
    ~seq_wall:seq.Runtime.Exec.wall_s ~par_wall:par.Runtime.Exec.wall_s prog
    spans

let kinds t =
  List.sort_uniq compare (List.map (fun f -> f.Detect.f_kind) t.findings)

let render ?focus t =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let findings =
    match focus with
    | None -> t.findings
    | Some sid ->
      List.filter
        (fun f ->
          match f.Detect.f_loop with Some s -> s = sid | None -> false)
        t.findings
  in
  line "performance diagnosis: %d domains, %s scheduling" t.domains
    (Runtime.Pool.schedule_to_string t.schedule);
  line "  parallel run %.2fms; sequential baseline %.2fms%s"
    (t.par_wall *. 1e3) (t.seq_wall *. 1e3)
    (match t.measured with
    | Some m -> Printf.sprintf "; measured speedup %.2fx (predicted %.2fx)" m
                  t.predicted
    | None -> Printf.sprintf "; predicted speedup %.2fx (too few cores to \
                              trust a measurement)" t.predicted);
  line "  parallel coverage %.0f%% over %d loop%s"
    (100.0 *. Profile.parallel_coverage t.profile)
    (List.length t.profile.Profile.loops)
    (if List.length t.profile.Profile.loops = 1 then "" else "s");
  (match (findings, focus) with
  | [], Some sid ->
    line "";
    line "loop s%d: no performance problems detected" sid
  | [], None ->
    line "";
    line "no performance problems detected"
  | fs, _ ->
    line "";
    line "%d finding%s, most costly first:" (List.length fs)
      (if List.length fs = 1 then "" else "s");
    List.iter
      (fun f ->
        line "";
        Buffer.add_string buf (Detect.render_finding f);
        Buffer.add_char buf '\n')
      fs);
  Buffer.contents buf
