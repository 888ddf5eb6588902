(* lib/server: the multi-session analysis layer.

   What must hold: the shared cache is a real LRU under its byte
   budget; a second session over identical (renumbered) source is
   served entirely from the cache; the persisted bucket memo
   round-trips, and a stale format fingerprint or a damaged payload is
   rejected rather than misread; the line protocol parses its grammar; the batch driver's
   shared-cache runs stay byte-identical to from-scratch analysis in
   both interleaved and partitioned modes. *)

open Fortran_front
open Util

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)
let workload name = Option.get (Workloads.by_name name)

(* All server paths renumber at open, so tests that should share
   fingerprints load the same canonical form. *)
let renumbered name = Ast.renumber_program (Workloads.program (workload name))

let session_with cache name =
  let w = workload name in
  Ped.Session.load
    ~sharing:(Server.Cache.sharing cache)
    (renumbered name)
    ~unit_name:(Workloads.main_unit w)

let first_assign (u : Ast.program_unit) =
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match (acc, s.Ast.node) with
      | None, Ast.Assign _ -> Some s
      | _ -> acc)
    None u.Ast.body

(* An identity edit + undo on the main unit's first assignment, in
   command-language form (ids are stable because the driver
   renumbers at open and undo restores them). *)
let edit_script name =
  let w = workload name in
  let program = renumbered name in
  let u =
    List.find
      (fun (u : Ast.program_unit) ->
        String.equal u.Ast.uname (Workloads.main_unit w))
      program.Ast.punits
  in
  match first_assign u with
  | None -> [ "loops" ]
  | Some s ->
    [
      Printf.sprintf "edit s%d %s" s.Ast.sid
        (String.trim (Pretty.stmt_to_string s));
      "undo";
      "loops";
    ]

(* A session the way an editor drives one: the assertion script, two
   edit/undo pairs, then redo/undo. *)
let burst_script name =
  let asserts = (workload name).Workloads.assertion_script in
  match edit_script name with
  | edit :: "undo" :: _ ->
    asserts @ [ edit; "undo"; edit; "undo"; "redo"; "undo" ]
  | _ -> asserts

let job ?unit_name id name script =
  let w = workload name in
  {
    Server.Batch.j_id = id;
    j_file = name ^ ".f";
    j_source = w.Workloads.source;
    j_unit =
      (match unit_name with
      | Some _ -> unit_name
      | None -> Some (Workloads.main_unit w));
    j_script = script;
  }

let fresh_dir () =
  let name = Filename.temp_file "pedsrv" "" in
  Sys.remove name;
  name

let write_file file s =
  let oc = open_out file in
  output_string oc s;
  close_out oc

let read_whole file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* --- shared cache: LRU under a byte budget ------------------------ *)

(* ~400 KB per blob against a 1 MiB budget: three never fit. *)
let big c = String.make (400 * 1024) c

let lru_eviction_order () =
  let cache = Server.Cache.create ~budget_mb:1 () in
  Server.Cache.add_blob cache "a" (big 'a');
  Server.Cache.add_blob cache "b" (big 'b');
  (* touch [a] so [b] becomes the least recently used *)
  check_bool "a resident" true (Server.Cache.find_blob cache "a" <> None);
  Server.Cache.add_blob cache "c" (big 'c');
  check_bool "b evicted" true (Server.Cache.find_blob cache "b" = None);
  check_bool "a survives (recently used)" true
    (Server.Cache.find_blob cache "a" <> None);
  check_bool "c survives (just inserted)" true
    (Server.Cache.find_blob cache "c" <> None);
  let st = Server.Cache.stats cache in
  check_bool "eviction counted" true (st.Server.Cache.evictions >= 1);
  check_bool "hits counted" true (st.Server.Cache.hits >= 2);
  check_bool "miss counted" true (st.Server.Cache.misses >= 1)

let budget_is_enforced () =
  let cache = Server.Cache.create ~budget_mb:1 () in
  for i = 1 to 6 do
    Server.Cache.add_blob cache (string_of_int i) (big 'x')
  done;
  let st = Server.Cache.stats cache in
  check_bool "bytes within budget" true
    (st.Server.Cache.bytes <= st.Server.Cache.budget_bytes);
  check_bool "entries bounded" true (st.Server.Cache.entries <= 2);
  check_bool "evictions counted" true (st.Server.Cache.evictions >= 4);
  check_int "every insertion counted" 6 st.Server.Cache.insertions

(* --- shared cache: eviction pressure from real analysis entries --- *)

(* Stress programs whose summaries and unit results overflow a 1 MB
   budget: the cache must evict, the counters must stay coherent, and
   every graph must still be byte-identical to a from-scratch replay
   (the batch [check] gate).  Each profile at smoke scale, seed 42,
   batches its first six units; two passes over them make the second
   pass revisit whatever the first evicted.  [wide] is the profile
   whose entries are sure to overflow the budget. *)
let eviction_pressure_stays_correct () =
  List.iter
    (fun (p : Oracle.Stress.profile) ->
      let name = p.Oracle.Stress.sp_name in
      let program = Oracle.Stress.generate ~seed:42 (Oracle.Stress.smoke p) in
      let src = Pretty.program_to_string program in
      let units = List.filteri (fun i _ -> i < 6) program.Ast.punits in
      let stress_job i (u : Ast.program_unit) =
        {
          Server.Batch.j_id = Printf.sprintf "%s/%d" name i;
          j_file = name ^ ".f";
          j_source = src;
          j_unit = Some u.Ast.uname;
          j_script = [ "loops" ];
        }
      in
      let pass = List.length units in
      let jobs =
        List.mapi stress_job units
        @ List.mapi (fun i u -> stress_job (pass + i) u) units
      in
      let cache = Server.Cache.create ~budget_mb:1 () in
      (match Server.Batch.run ~cache ~check:true jobs with
      | Error e -> Alcotest.fail e
      | Ok o ->
        check_bool (name ^ ": identical after eviction") true
          (o.Server.Batch.o_identical = Some true);
        check_bool (name ^ ": no job errors") true
          (List.for_all
             (fun (r : Server.Batch.job_result) ->
               r.Server.Batch.jr_error = None)
             o.Server.Batch.o_results));
      let st = Server.Cache.stats cache in
      if String.equal name "wide" then
        check_bool "wide: evictions forced" true
          (st.Server.Cache.evictions > 0);
      check_int (name ^ ": entries = insertions - evictions")
        (st.Server.Cache.insertions - st.Server.Cache.evictions)
        st.Server.Cache.entries;
      check_bool (name ^ ": bytes within budget") true
        (st.Server.Cache.bytes <= st.Server.Cache.budget_bytes);
      check_bool (name ^ ": lookups recorded") true
        (st.Server.Cache.hits + st.Server.Cache.misses > 0);
      check_bool (name ^ ": insertions follow misses") true
        (st.Server.Cache.insertions <= st.Server.Cache.misses))
    Oracle.Stress.all

(* After the LRU dropped an entry, a later session must transparently
   recompute it — same graph as a session over a private engine.
   [wide] is the profile whose per-unit entries overflow 1 MB. *)
let evicted_entries_recompute_correctly () =
  let program =
    Oracle.Stress.generate ~seed:42 (Oracle.Stress.smoke Oracle.Stress.wide)
  in
  let cache = Server.Cache.create ~budget_mb:1 () in
  let sharing = Server.Cache.sharing cache in
  List.iter
    (fun (u : Ast.program_unit) ->
      ignore
        (Ped.Session.ddg
           (Ped.Session.load ~sharing program ~unit_name:u.Ast.uname)))
    program.Ast.punits;
  check_bool "the walk evicted" true
    ((Server.Cache.stats cache).Server.Cache.evictions > 0);
  List.iter
    (fun (u : Ast.program_unit) ->
      let again =
        Ped.Session.load ~sharing program ~unit_name:u.Ast.uname
      in
      let scratch = Ped.Session.load program ~unit_name:u.Ast.uname in
      check_bool (u.Ast.uname ^ ": equal after eviction") true
        (Dependence.Ddg.equal
           (Ped.Session.ddg scratch)
           (Ped.Session.ddg again)))
    program.Ast.punits

(* --- shared cache: cross-session dedup ---------------------------- *)

let cross_session_dedup () =
  let cache = Server.Cache.create () in
  let a = session_with cache "matmul" in
  let b = session_with cache "matmul" in
  (* the second session computes nothing: unit analysis and summary
     both arrive through the sharing hooks *)
  let sb = Ped.Session.engine_stats b in
  check_int "no unit analyses computed" 0 sb.Engine.env_misses;
  check_int "no summaries built" 0 sb.Engine.summary_builds;
  check_bool "served from the shared cache" true (sb.Engine.env_hits >= 1);
  let st = Server.Cache.stats cache in
  check_bool "cache hits recorded" true (st.Server.Cache.hits >= 2);
  check_bool "positive hit rate" true (Server.Cache.hit_rate st > 0.);
  check_bool "identical graphs" true
    (Ped.Session.ddg a = Ped.Session.ddg b)

(* --- shared cache: persistence ------------------------------------ *)

let persistent_round_trip () =
  let cache = Server.Cache.create () in
  let _ = session_with cache "jacobi" in
  let buckets = (Server.Cache.stats cache).Server.Cache.bucket_entries in
  check_bool "buckets memoized" true (buckets > 0);
  let dir = fresh_dir () in
  check_int "saved all buckets" buckets
    (ok_exn "save" (Server.Cache.save cache ~dir));
  let fresh = Server.Cache.create () in
  check_int "loaded all buckets" buckets
    (ok_exn "load" (Server.Cache.load fresh ~dir));
  (* a warmed cache serves every dependence pair test from the memo *)
  let sess = session_with fresh "jacobi" in
  let s = Ped.Session.engine_stats sess in
  check_int "no pair tests run" 0 s.Engine.tests_run;
  check_int "no bucket misses" 0 s.Engine.ddg_bucket_misses

let load_missing_is_empty () =
  let cache = Server.Cache.create () in
  check_int "no file, no buckets" 0
    (ok_exn "load" (Server.Cache.load cache ~dir:(fresh_dir ())))

let version_mismatch_rejected () =
  let cache = Server.Cache.create () in
  let _ = session_with cache "matmul" in
  let dir = fresh_dir () in
  let _ = ok_exn "save" (Server.Cache.save cache ~dir) in
  let file = Server.Cache.cache_file ~dir in
  let contents = read_whole file in
  (* flip one hex digit of the embedded format fingerprint *)
  let fp = Server.Cache.version_fingerprint () in
  let rec find i =
    if i + String.length fp > String.length contents then
      failwith "fingerprint not found in cache file"
    else if String.sub contents i (String.length fp) = fp then i
    else find (i + 1)
  in
  let at = find 0 in
  let b = Bytes.of_string contents in
  Bytes.set b at (if Bytes.get b at = '0' then '1' else '0');
  write_file file (Bytes.to_string b);
  (match Server.Cache.load (Server.Cache.create ()) ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale fingerprint accepted");
  (* a foreign file (wrong magic) is rejected too *)
  write_file file "NOTACACHE\njunk\n";
  match Server.Cache.load (Server.Cache.create ()) ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign file accepted"

(* Marshal trusts its input, so a damaged payload must be refused by
   its checksum: flip three bits past the three header lines, many
   times over, and every load is an [Error] that leaves the cache
   serving sessions. *)
let flipped_payload_rejected () =
  let cache = Server.Cache.create () in
  let _ = session_with cache "jacobi" in
  let dir = fresh_dir () in
  let _ = ok_exn "save" (Server.Cache.save cache ~dir) in
  let file = Server.Cache.cache_file ~dir in
  let contents = read_whole file in
  let rec nth_newline i n =
    let j = String.index_from contents i '\n' in
    if n = 1 then j else nth_newline (j + 1) (n - 1)
  in
  let payload_at = nth_newline 0 3 + 1 in
  for seed = 0 to 19 do
    let rng = Random.State.make [| seed |] in
    let b = Bytes.of_string contents in
    for _ = 1 to 3 do
      let at = payload_at + Random.State.int rng (Bytes.length b - payload_at) in
      Bytes.set b at
        (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl Random.State.int rng 8)))
    done;
    write_file file (Bytes.to_string b);
    let fresh = Server.Cache.create () in
    (match Server.Cache.load fresh ~dir with
    | Error _ -> ()
    | Ok n -> Alcotest.failf "seed %d: damaged payload loaded %d buckets" seed n);
    let sess = session_with fresh "jacobi" in
    check_bool
      (Printf.sprintf "seed %d: session answers loops" seed)
      true
      (contains ~needle:"DO" (Ped.Command.run sess "loops"))
  done

(* --- sessions: bounded history ------------------------------------ *)

let history_is_bounded () =
  let w = workload "matmul" in
  let sess =
    Ped.Session.load ~history_limit:3 (renumbered "matmul")
      ~unit_name:(Workloads.main_unit w)
  in
  check_int "limit recorded" 3 (Ped.Session.history_limit sess);
  let identity_edit () =
    let name = Ped.Session.unit_name sess in
    let u =
      List.find
        (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
        (Ped.Session.program sess).Ast.punits
    in
    match first_assign u with
    | None -> failwith "no assignment to edit"
    | Some s ->
      ok_exn "edit"
        (Ped.Session.edit_stmt sess s.Ast.sid
           (String.trim (Pretty.stmt_to_string s)))
  in
  for _ = 1 to 5 do
    identity_edit ()
  done;
  check_int "history truncated to the limit" 3
    (List.length (Ped.Session.history sess));
  for i = 1 to 3 do
    ok_exn (Printf.sprintf "undo %d" i) (Ped.Session.undo sess)
  done;
  (match Ped.Session.undo sess with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undid past the truncated history");
  match
    Ped.Session.load ~history_limit:0 (renumbered "matmul")
      ~unit_name:(Workloads.main_unit w)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "history_limit 0 accepted"

(* --- protocol ------------------------------------------------------ *)

let protocol_grammar () =
  let p line = ok_exn ("parse " ^ line) (Server.Protocol.parse line) in
  (match p "open a prog.f" with
  | Server.Protocol.Open { rsid = "a"; file = "prog.f"; unit_name = None } ->
    ()
  | _ -> Alcotest.fail "open without unit");
  (match p "open b prog.f SMOOTH" with
  | Server.Protocol.Open { rsid = "b"; unit_name = Some "SMOOTH"; _ } -> ()
  | _ -> Alcotest.fail "open with unit");
  (match p "cmd a deps from s3" with
  | Server.Protocol.Cmd { rsid = "a"; line = "deps from s3" } -> ()
  | _ -> Alcotest.fail "cmd keeps the command line verbatim");
  (match p "stats a" with
  | Server.Protocol.Stats "a" -> ()
  | _ -> Alcotest.fail "stats");
  (match p "sessions" with
  | Server.Protocol.Sessions -> ()
  | _ -> Alcotest.fail "sessions");
  (match p "cache" with
  | Server.Protocol.Cache_stats -> ()
  | _ -> Alcotest.fail "cache");
  (match p "close a" with
  | Server.Protocol.Close "a" -> ()
  | _ -> Alcotest.fail "close");
  (match p "quit" with
  | Server.Protocol.Quit -> ()
  | _ -> Alcotest.fail "quit");
  List.iter
    (fun bad ->
      match Server.Protocol.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed request: " ^ bad))
    [ ""; "bogus x"; "open onlyid"; "cmd a"; "stats"; "close" ];
  check_bool "payload splits lines" true
    (Server.Protocol.payload_of_text "a\nb\n" = [ "a"; "b" ]);
  check_bool "empty text, empty payload" true
    (Server.Protocol.payload_of_text "" = [])

(* --- the server ---------------------------------------------------- *)

let serve_session_flow () =
  let server = Server.Serve.create () in
  let w = workload "matmul" in
  let file = Filename.temp_file "ped" ".f" in
  write_file file w.Workloads.source;
  let handle req = Server.Serve.handle server req in
  let opened id =
    ok_exn ("open " ^ id)
      (handle
         (Server.Protocol.Open { rsid = id; file; unit_name = None }))
  in
  let id, _ = opened "a" in
  check_string "echoes the session id" "a" id;
  (match handle (Server.Protocol.Open { rsid = "a"; file; unit_name = None })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate session id accepted");
  let _ = opened "b" in
  check_int "both sessions listed" 2
    (List.length (Server.Serve.sessions server));
  let _, payload =
    ok_exn "cmd" (handle (Server.Protocol.Cmd { rsid = "a"; line = "loops" }))
  in
  check_bool "command produced output" true (payload <> []);
  let _, stats_payload = ok_exn "stats" (handle (Server.Protocol.Stats "b")) in
  (* the open above ran in b's telemetry lane, so the stats response
     ends with that session's request-latency quantiles *)
  let has_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      i + n <= h && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  (match List.rev stats_payload with
  | latency :: _ ->
    check_bool "stats ends with a request-latency line" true
      (has_sub latency "request latency: p50 ");
    check_bool "latency line reports p95 and max" true
      (has_sub latency "p95 " && has_sub latency "max ");
    check_bool "latency line counts b's one request" true
      (has_sub latency "(1 request)")
  | [] -> Alcotest.fail "empty stats payload");
  let _ = ok_exn "cache" (handle Server.Protocol.Cache_stats) in
  (* session b was served from a's work: the server's sink aggregates
     across sessions, and the whole server computed exactly one unit
     analysis for two opens *)
  let b = Option.get (Server.Serve.find_session server "b") in
  check_int "one unit analysis across both sessions" 1
    (Ped.Session.engine_stats b).Engine.env_misses;
  check_bool "second open hit the shared cache" true
    ((Server.Cache.stats (Server.Serve.cache server)).Server.Cache.hits >= 2);
  let _ = ok_exn "close" (handle (Server.Protocol.Close "a")) in
  check_bool "a closed" true (Server.Serve.find_session server "a" = None);
  (match handle (Server.Protocol.Cmd { rsid = "a"; line = "loops" }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "command on a closed session accepted");
  let _ = ok_exn "quit" (handle Server.Protocol.Quit) in
  Sys.remove file

(* Byte-identical sources at two paths: no bucket key holds a source
   location, so opening the copy runs no dependence test and stores no
   new bucket. *)
let copy_at_another_path_shares_buckets () =
  let server = Server.Serve.create () in
  let src =
    "      PROGRAM NEST\n      REAL A(100)\n      DO 10 I = 2, 100\n\
    \        A(I) = A(I - 1) + 1.0\n   10 CONTINUE\n      END\n"
  in
  let file dir name =
    Sys.mkdir dir 0o755;
    let f = Filename.concat dir name in
    write_file f src;
    f
  in
  let original = file (fresh_dir ()) "nest.f"
  and copy = file (fresh_dir ()) "copy.f" in
  let opened id file =
    ignore
      (ok_exn ("open " ^ id)
         (Server.Serve.handle server
            (Server.Protocol.Open { rsid = id; file; unit_name = None })))
  in
  let tests () =
    Telemetry.value
      (Telemetry.counter (Server.Serve.telemetry server) "ddg.tests_executed")
  in
  let buckets () =
    (Server.Cache.stats (Server.Serve.cache server)).Server.Cache.bucket_entries
  in
  let lookups () =
    let s = Server.Cache.stats (Server.Serve.cache server) in
    (s.Server.Cache.hits, s.Server.Cache.misses)
  in
  opened "a" original;
  let tests_a = tests () and buckets_a = buckets () in
  let hits_a, misses_a = lookups () in
  check_bool "the original ran tests" true (tests_a > 0);
  opened "b" copy;
  ignore
    (ok_exn "cmd b"
       (Server.Serve.handle server
          (Server.Protocol.Cmd { rsid = "b"; line = "deps" })));
  check_int "the copy runs no dependence test" tests_a (tests ());
  check_int "the copy stores no bucket" buckets_a (buckets ());
  (* b's summary and unit lookups are served by a's entries *)
  let hits_b, misses_b = lookups () in
  check_int "the copy's summary and unit lookups hit" (hits_a + 2) hits_b;
  check_int "the copy misses nothing" misses_a misses_b;
  List.iter Sys.remove [ original; copy ]

let serve_lanes_in_trace () =
  let sink = Telemetry.make ~record_spans:true () in
  let server = Server.Serve.create ~telemetry:sink () in
  let w = workload "matmul" in
  let file = Filename.temp_file "ped" ".f" in
  write_file file w.Workloads.source;
  let _ =
    ok_exn "open"
      (Server.Serve.handle server
         (Server.Protocol.Open { rsid = "a"; file; unit_name = None }))
  in
  let _ =
    ok_exn "cmd"
      (Server.Serve.handle server
         (Server.Protocol.Cmd { rsid = "a"; line = "loops" }))
  in
  Sys.remove file;
  let request_lanes =
    List.filter_map
      (fun (sp : Telemetry.span_record) ->
        if sp.Telemetry.sp_name = "server.request" then
          Some sp.Telemetry.sp_lane
        else None)
      (Telemetry.spans sink)
  in
  check_bool "request spans recorded" true (request_lanes <> []);
  check_bool "spans carry the session lane" true
    (List.for_all (( = ) (Some "session a")) request_lanes)

(* --- canonical renumbering ---------------------------------------- *)

let renumbering_is_canonical () =
  let digest p =
    Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ]))
  in
  (* two independent parses normalize to the same ids — the property
     cross-process fingerprint equality rests on *)
  check_string "same source, same canonical form"
    (digest (renumbered "callnest"))
    (digest (renumbered "callnest"))

(* --- the batch driver ---------------------------------------------- *)

let batch_interleaved_identical () =
  let jobs =
    List.init 3 (fun i ->
        job (Printf.sprintf "j%d" i) "matmul" (edit_script "matmul"))
  in
  let o = ok_exn "batch" (Server.Batch.run ~check:true jobs) in
  check_int "all jobs ran" 3 o.Server.Batch.o_jobs;
  List.iter
    (fun (r : Server.Batch.job_result) ->
      check_bool ("job ok: " ^ r.Server.Batch.jr_id) true
        (r.Server.Batch.jr_error = None))
    o.Server.Batch.o_results;
  check_bool "byte-identical to from-scratch" true
    (o.Server.Batch.o_identical = Some true);
  check_bool "duplicated jobs hit the shared cache" true
    (Server.Cache.hit_rate o.Server.Batch.o_cache > 0.);
  check_bool "edits counted" true (o.Server.Batch.o_edits >= 6);
  (* every workload's bursts, two copies each *)
  let jobs =
    List.concat_map
      (fun (w : Workloads.t) ->
        let name = w.Workloads.name in
        List.init 2 (fun c ->
            job (Printf.sprintf "%s/%d" name c) name (burst_script name)))
      Workloads.all
  in
  let o = ok_exn "batch" (Server.Batch.run ~check:true jobs) in
  check_bool "every workload's bursts: byte-identical" true
    (o.Server.Batch.o_identical = Some true);
  check_bool "every workload's bursts: shared-cache hits" true
    (Server.Cache.hit_rate o.Server.Batch.o_cache > 0.)

let batch_partitioned_identical () =
  let jobs =
    List.concat_map
      (fun name ->
        [
          job (name ^ "-1") name (edit_script name);
          job (name ^ "-2") name (edit_script name);
        ])
      [ "matmul"; "jacobi" ]
  in
  (* with two analysis domains, the sessions on both workers share one
     analysis pool, and whichever finds it busy runs inline *)
  List.iter
    (fun analysis_domains ->
      let o =
        ok_exn "batch"
          (Server.Batch.run ~check:true ~domains:2 ~analysis_domains jobs)
      in
      check_int "two worker domains" 2 o.Server.Batch.o_domains;
      check_int "all jobs ran" 4 o.Server.Batch.o_jobs;
      List.iter
        (fun (r : Server.Batch.job_result) ->
          check_bool ("job ok: " ^ r.Server.Batch.jr_id) true
            (r.Server.Batch.jr_error = None);
          check_bool ("checked: " ^ r.Server.Batch.jr_id) true
            (r.Server.Batch.jr_scratch_digest
            = Some r.Server.Batch.jr_ddg_digest))
        o.Server.Batch.o_results;
      check_bool "byte-identical to from-scratch" true
        (o.Server.Batch.o_identical = Some true))
    [ 1; 2 ]

let batch_job_file_parses () =
  let dir = fresh_dir () in
  Sys.mkdir dir 0o755;
  let w = workload "matmul" in
  write_file (Filename.concat dir "matmul.f") w.Workloads.source;
  let jobfile = Filename.concat dir "jobs.txt" in
  write_file jobfile
    (String.concat "\n"
       [
         "# a comment";
         "";
         "matmul.f :: loops ; deps";
         Printf.sprintf "matmul.f#%s :: vars" (Workloads.main_unit w);
         "";
       ]);
  let jobs = ok_exn "parse" (Server.Batch.parse_job_file jobfile) in
  check_int "two jobs" 2 (List.length jobs);
  let j1 = List.nth jobs 0 and j2 = List.nth jobs 1 in
  check_bool "script split on ;" true
    (j1.Server.Batch.j_script = [ "loops"; "deps" ]);
  check_bool "explicit unit" true
    (j2.Server.Batch.j_unit = Some (Workloads.main_unit w));
  write_file jobfile "nosuch.f :: loops\n";
  match Server.Batch.parse_job_file jobfile with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing source accepted"

(* A bad processor count is one session's error line, not a crash that
   takes every session down with it. *)
let serve_bad_processors_stay_local () =
  let server = Server.Serve.create () in
  let file = Filename.temp_file "ped" ".f" in
  write_file file (workload "daxpy").Workloads.source;
  let handle req = Server.Serve.handle server req in
  List.iter
    (fun id ->
      ignore
        (ok_exn ("open " ^ id)
           (handle (Server.Protocol.Open { rsid = id; file; unit_name = None }))))
    [ "a"; "b" ];
  let cmd id line =
    String.concat "\n"
      (snd (ok_exn line (handle (Server.Protocol.Cmd { rsid = id; line }))))
  in
  ignore (cmd "a" "apply parallelize l1");
  check_string "a answers with an error line"
    "error: processor count 0 must be at least 1" (cmd "a" "simulate 0");
  check_bool "sibling b still answers" true
    (contains ~needle:"speedup:" (cmd "b" "simulate 4"));
  Sys.remove file

let suite =
  [
    case "cache: LRU evicts the least recently used entry"
      lru_eviction_order;
    case "cache: the byte budget is enforced" budget_is_enforced;
    case "cache: eviction pressure keeps batch results byte-identical"
      eviction_pressure_stays_correct;
    case "cache: evicted entries recompute to the same graph"
      evicted_entries_recompute_correctly;
    case "cache: a second identical session is fully served"
      cross_session_dedup;
    case "cache: the bucket memo round-trips through disk"
      persistent_round_trip;
    case "cache: loading a missing file is empty, not an error"
      load_missing_is_empty;
    case "cache: stale fingerprints and foreign files are rejected"
      version_mismatch_rejected;
    case "cache: a payload with flipped bits is rejected"
      flipped_payload_rejected;
    case "session: the undo history is bounded" history_is_bounded;
    case "protocol: the request grammar" protocol_grammar;
    case "serve: open, command, stats, close" serve_session_flow;
    case "serve: a copy at another path shares every bucket"
      copy_at_another_path_shares_buckets;
    case "serve: a bad processor count leaves sibling sessions answering"
      serve_bad_processors_stay_local;
    case "serve: request spans carry per-session lanes"
      serve_lanes_in_trace;
    case "ast: renumbering is canonical across parses"
      renumbering_is_canonical;
    case "batch: interleaved sharing stays byte-identical"
      batch_interleaved_identical;
    case "batch: partitioned across domains stays byte-identical"
      batch_partitioned_identical;
    case "batch: job files parse and reject missing sources"
      batch_job_file_parses;
  ]
