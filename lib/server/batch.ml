open Fortran_front
open Ped

type job = {
  j_id : string;
  j_file : string;
  j_source : string;
  j_unit : string option;
  j_script : string list;
}

type job_result = {
  jr_id : string;
  jr_unit : string;
  jr_commands : int;
  jr_edits : int;
  jr_ddg_digest : string;
  jr_scratch_digest : string option;
  jr_error : string option;
}

type outcome = {
  o_jobs : int;
  o_domains : int;
  o_commands : int;
  o_edits : int;
  o_elapsed_s : float;
  o_identical : bool option;
  o_cache : Cache.stats;
  o_results : job_result list;
}

let sessions_per_sec o =
  if o.o_elapsed_s <= 0. then 0. else float_of_int o.o_jobs /. o.o_elapsed_s

let edits_per_sec o =
  if o.o_elapsed_s <= 0. then 0. else float_of_int o.o_edits /. o.o_elapsed_s

(* ---- job files ---- *)

let parse_job_line ~dir ~lineno ~idx (line : string) : (job, string) result =
  let fail fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m)) fmt
  in
  match
    let sep = "::" in
    let rec find i =
      if i + String.length sep > String.length line then None
      else if String.sub line i (String.length sep) = sep then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> fail "expected FILE[#UNIT] :: cmd ; cmd"
  | Some i -> (
    let left = String.trim (String.sub line 0 i) in
    let right =
      String.sub line (i + 2) (String.length line - i - 2)
    in
    let file, unit_name =
      match String.index_opt left '#' with
      | Some h ->
        ( String.sub left 0 h,
          Some (String.sub left (h + 1) (String.length left - h - 1)) )
      | None -> (left, None)
    in
    if file = "" then fail "missing source file"
    else
      let path = if Filename.is_relative file then Filename.concat dir file else file in
      if not (Sys.file_exists path) then fail "no such file %s" path
      else
        let source = In_channel.with_open_bin path In_channel.input_all in
        let script =
          String.split_on_char ';' right
          |> List.map String.trim
          |> List.filter (( <> ) "")
        in
        Ok
          {
            j_id = Printf.sprintf "j%d:%s" idx (Filename.basename file);
            j_file = path;
            j_source = source;
            j_unit = unit_name;
            j_script = script;
          })

let parse_job_file (path : string) : (job list, string) result =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "no such job file %s" path)
  else begin
    let dir = Filename.dirname path in
    let lines =
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
    in
    let rec go lineno idx acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        let t = String.trim line in
        if t = "" || t.[0] = '#' then go (lineno + 1) idx acc rest
        else begin
          match parse_job_line ~dir ~lineno ~idx t with
          | Error e -> Error (path ^ ": " ^ e)
          | Ok j -> go (lineno + 1) (idx + 1) (j :: acc) rest
        end
    in
    go 1 0 [] lines
  end

(* ---- execution ---- *)

let is_edit (line : string) =
  match String.split_on_char ' ' (String.trim line) with
  | verb :: _ -> List.mem verb [ "edit"; "apply"; "undo"; "redo" ]
  | [] -> false

(* Canonical renumbering at open — the same normalization the server
   applies — is what lets two jobs over identical source share cache
   entries, and what makes the from-scratch replay byte-comparable. *)
let open_job ?sharing ?caching ?runner ~sink ~history_limit (j : job) :
    (Session.t, string) result =
  match
    Parser.guard (fun () -> Parser.parse_program ~file:j.j_file j.j_source)
  with
  | Error e -> Error e
  | Ok program -> (
    let program = Ast.renumber_program program in
    match
      let unit_name =
        match j.j_unit with
        | Some n -> n
        | None -> (Ast.entry_unit program).Ast.uname
      in
      Session.load ?sharing ?caching ?runner ~history_limit ~telemetry:sink
        program ~unit_name
    with
    | exception Invalid_argument e -> Error e
    | exception Failure e -> Error e
    | s -> Ok s)

let failed_result (j : job) e =
  {
    jr_id = j.j_id;
    jr_unit = "";
    jr_commands = 0;
    jr_edits = 0;
    jr_ddg_digest = "";
    jr_scratch_digest = None;
    jr_error = Some e;
  }

let finish_result (j : job) s ~commands ~edits =
  {
    jr_id = j.j_id;
    jr_unit = Session.unit_name s;
    jr_commands = commands;
    jr_edits = edits;
    jr_ddg_digest = Dependence.Ddg.digest (Session.ddg s);
    jr_scratch_digest = None;
    jr_error = None;
  }

let run_cmd sink (j : job) s line =
  Telemetry.with_lane sink ("session " ^ j.j_id) @@ fun () ->
  Telemetry.span sink "server.request"
    ~args:[ ("session", j.j_id); ("request", "cmd") ]
  @@ fun () -> ignore (Command.run s line)

(* One job, start to finish, on the calling domain. *)
let exec_one ?sharing ?runner ~sink ~history_limit (j : job) : job_result =
  match open_job ?sharing ?runner ~sink ~history_limit j with
  | Error e -> failed_result j e
  | Ok s -> (
    match
      List.iter (fun line -> run_cmd sink j s line) j.j_script
    with
    | () ->
      finish_result j s ~commands:(List.length j.j_script)
        ~edits:(List.length (List.filter is_edit j.j_script))
    | exception e -> failed_result j (Printexc.to_string e))

(* Interleaved mode: all sessions open, then one command at a time
   round-robin — deterministic multiplexing over one fully shared
   cache, the batch model of the interactive server under load.  As in
   [exec_one], a command that raises fails its own job only. *)
let run_interleaved ?runner ~sink ~cache ~history_limit (jobs : job array) :
    job_result array =
  let sharing = Cache.sharing cache in
  let state =
    Array.map
      (fun j ->
        match open_job ~sharing ?runner ~sink ~history_limit j with
        | Ok s -> (j, ref (Ok s), ref j.j_script, ref 0, ref 0)
        | Error e -> (j, ref (Error e), ref [], ref 0, ref 0))
      jobs
  in
  let live = ref true in
  while !live do
    live := false;
    Array.iter
      (fun (j, so, queue, commands, edits) ->
        match (!so, !queue) with
        | Ok s, line :: rest -> (
          queue := rest;
          if rest <> [] then live := true;
          match run_cmd sink j s line with
          | () ->
            incr commands;
            if is_edit line then incr edits
          | exception e ->
            so := Error (Printexc.to_string e);
            queue := [])
        | _ -> ())
      state
  done;
  Array.map
    (fun (j, so, _, commands, edits) ->
      match !so with
      | Error e -> failed_result j e
      | Ok s -> finish_result j s ~commands:!commands ~edits:!edits)
    state

(* Partitioned mode: jobs split across worker domains, every worker
   sharing the one mutex-guarded cache.  Sessions on different workers
   may share one analysis runner: whichever submits while its pool is
   busy runs its buckets inline. *)
let run_partitioned ?runner ~sink ~cache ~history_limit ~domains
    (jobs : job array) : job_result array =
  let results = Array.map failed_result jobs |> Array.map (fun f -> f "unrun") in
  Runtime.Pool.with_pool ~telemetry:sink domains (fun pool ->
      Runtime.Pool.parallel_for pool ~schedule:Runtime.Pool.Chunk
        ~trip:(Array.length jobs)
        ~body:(fun ~worker:_ i ->
          results.(i) <-
            exec_one ~sharing:(Cache.sharing cache) ?runner ~sink
              ~history_limit jobs.(i)));
  results

(* From-scratch replay: no sharing, no caching — the baseline the
   shared runs must be byte-identical to. *)
let scratch_digest ~sink ~history_limit (j : job) : (string, string) result =
  match open_job ~caching:false ~sink ~history_limit j with
  | Error e -> Error e
  | Ok s -> (
    match List.iter (fun l -> ignore (Command.run s l)) j.j_script with
    | () -> Ok (Dependence.Ddg.digest (Session.ddg s))
    | exception e -> Error (Printexc.to_string e))

let run ?telemetry ?cache ?(domains = 1) ?(analysis_domains = 1)
    ?(history_limit = 1000) ?(check = false) (jobs : job list) :
    (outcome, string) result =
  let analysis_domains = max 1 analysis_domains in
  if jobs = [] then Error "no jobs"
  else begin
    let sink =
      match telemetry with Some s -> s | None -> Telemetry.make ()
    in
    let jobs_a = Array.of_list jobs in
    let domains = max 1 (min domains (Array.length jobs_a)) in
    let cache =
      match cache with Some c -> c | None -> Cache.create ~telemetry:sink ()
    in
    let t0 = Telemetry.now_ns () in
    let with_analysis_pool f =
      if analysis_domains <= 1 then f None
      else
        Runtime.Pool.with_pool ~telemetry:sink analysis_domains (fun pool ->
            f (Some (Runtime.Pool.analysis_runner pool)))
    in
    let results =
      with_analysis_pool (fun runner ->
          if domains <= 1 then
            run_interleaved ?runner ~sink ~cache ~history_limit jobs_a
          else
            run_partitioned ?runner ~sink ~cache ~history_limit ~domains jobs_a)
    in
    let elapsed_s =
      Int64.to_float (Int64.sub (Telemetry.now_ns ()) t0) /. 1e9
    in
    let results =
      if not check then Array.to_list results
      else
        Array.to_list results
        |> List.mapi (fun i r ->
               if r.jr_error <> None then r
               else
                 match scratch_digest ~sink ~history_limit jobs_a.(i) with
                 | Ok d -> { r with jr_scratch_digest = Some d }
                 | Error e ->
                   { r with jr_error = Some ("from-scratch replay: " ^ e) })
    in
    let identical =
      if not check then None
      else
        Some
          (List.for_all
             (fun r ->
               r.jr_error = None
               && r.jr_scratch_digest = Some r.jr_ddg_digest)
             results)
    in
    Ok
      {
        o_jobs = Array.length jobs_a;
        o_domains = domains;
        o_commands = List.fold_left (fun n r -> n + r.jr_commands) 0 results;
        o_edits = List.fold_left (fun n r -> n + r.jr_edits) 0 results;
        o_elapsed_s = elapsed_s;
        o_identical = identical;
        o_cache = Cache.stats cache;
        o_results = results;
      }
  end

let report (o : outcome) : string =
  let failures =
    List.filter_map
      (fun r -> Option.map (fun e -> (r.jr_id, e)) r.jr_error)
      o.o_results
  in
  String.concat "\n"
    ([
       Printf.sprintf
         "batch: %d job(s) on %d domain(s)%s — %d commands (%d edits) in \
          %.3fs"
         o.o_jobs o.o_domains
         (if o.o_domains <= 1 then " (interleaved, shared cache)"
          else " (partitioned, cache shared across domains)")
         o.o_commands o.o_edits o.o_elapsed_s;
       Printf.sprintf "  throughput : %.1f sessions/s, %.1f edits/s"
         (sessions_per_sec o) (edits_per_sec o);
       Printf.sprintf
         "  cache      : %d hits, %d misses (%.0f%% hit rate), %d evictions"
         o.o_cache.Cache.hits o.o_cache.Cache.misses
         (100. *. Cache.hit_rate o.o_cache)
         o.o_cache.Cache.evictions;
     ]
    @ (match o.o_identical with
      | None -> []
      | Some true ->
        [ "  check      : all DDGs byte-identical to from-scratch replay" ]
      | Some false ->
        [ "  check      : MISMATCH against from-scratch replay" ])
    @ List.map
        (fun (id, e) -> Printf.sprintf "  FAILED %s: %s" id e)
        failures)
