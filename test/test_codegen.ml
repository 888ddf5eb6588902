(* The native code generation backend: every workload compiled through
   the full pipeline (lower → emit → ocamlopt → Dynlink) and diffed
   against the sequential simulator — bit-identical sequentially,
   tolerance-matched in parallel; the persisted oracle corpus pushed
   through the codegen oracle; a stress-factory program at scale
   0.15; and the failure modes: unsupported programs and a missing
   toolchain must come back as [Error], never an exception.

   Hosts without ocamlopt on PATH skip the compile-and-run cases
   (printing the reason) — the pipeline's graceful degradation is
   itself asserted by the toolchain case. *)

open Util

let toolchain_available = Result.is_ok (Codegen.Toolchain.find ())

let skip_or_fail name = function
  | Codegen.Compile.Toolchain m ->
    Printf.printf "  [codegen] %s: skipped (%s)\n%!" name m
  | e -> Alcotest.failf "%s: %s" name (Codegen.Compile.error_to_string e)

(* Compile [program], run it sequentially (must equal the interpreter
   exactly: same operations in the same order) and on [domains]
   domains under both schedules (within tolerance: parallel reduction
   combining reassociates). *)
let check_compiled name program ~domains =
  let seq = Sim.Interp.run ~honor_parallel:false program in
  match Codegen.Compile.build program with
  | Error e -> skip_or_fail name e
  | Ok built ->
    (match Codegen.Compile.run built ~pool:None ~schedule:Runtime.Pool.Chunk with
    | Error e -> Alcotest.failf "%s seq: %s" name (Codegen.Compile.error_to_string e)
    | Ok r ->
      check_bool (name ^ ": sequential output identical") true
        (r.Codegen.Compile.out_lines = seq.Sim.Interp.output);
      check_bool (name ^ ": sequential store identical") true
        (r.Codegen.Compile.store = seq.Sim.Interp.final_store));
    List.iter
      (fun schedule ->
        match
          Runtime.Pool.with_pool domains (fun pool ->
              Codegen.Compile.run built ~pool:(Some pool) ~schedule)
        with
        | Error e ->
          Alcotest.failf "%s par: %s" name (Codegen.Compile.error_to_string e)
        | Ok r ->
          let label =
            Printf.sprintf "%s @%d/%s" name domains
              (Runtime.Pool.schedule_to_string schedule)
          in
          check_bool (label ^ ": output matches") true
            (Sim.Interp.outputs_match ~tol:1e-4 r.Codegen.Compile.out_lines
               seq.Sim.Interp.output);
          check_bool (label ^ ": store matches") true
            (Sim.Interp.stores_match r.Codegen.Compile.store
               seq.Sim.Interp.final_store))
      [ Runtime.Pool.Chunk; Runtime.Pool.Self ]

let all_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
      check_compiled w.Workloads.name
        (Test_runtime.parallelized w)
        ~domains:3)
    Workloads.all

let stress_smoke () =
  match Workloads.stress "stress:deep@0.15" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check_compiled "stress:deep@0.15" (editor_parallelized p) ~domains:2

let corpus_through_codegen () =
  (* every persisted counterexample, whatever oracle recorded it, must
     also survive the codegen oracle (or fall outside the subset) *)
  List.iter
    (fun f ->
      match Oracle.Corpus.load f with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok entry -> (
        let r = Oracle.Cgcheck.check entry.Oracle.Corpus.e_program in
        match r.Oracle.Cgcheck.failures with
        | [] -> ()
        | fs ->
          Alcotest.failf "%s diverges under codegen: %s" f
            (String.concat "; "
               (List.map Oracle.Runcheck.failure_to_string fs))))
    (Oracle.Corpus.files "corpus")

(* The lowered PARALLEL DO carries the plan the editor approved: X,
   killed by the CALL in every iteration, is private to each worker. *)
let lowered_plan_is_interprocedural () =
  match Codegen.Lower.program (editor_parallelized (interproc_private ())) with
  | Error e -> Alcotest.fail e
  | Ok ir ->
    let main =
      List.find
        (fun (u : Codegen.Ir.unitdef) ->
          u.Codegen.Ir.u_name = ir.Codegen.Ir.p_main)
        ir.Codegen.Ir.p_units
    in
    let par =
      List.find_map
        (function Codegen.Ir.Spar (_, pp, _) -> Some pp | _ -> None)
        main.Codegen.Ir.u_body
    in
    match par with
    | None -> Alcotest.fail "the outer loop was not lowered as a PARALLEL DO"
    | Some pp ->
      check_bool "X is a private of the outer loop" true
        (List.mem_assoc "X" pp.Codegen.Ir.pp_privates)

let unsupported_is_error () =
  (* a recursive call graph is outside the compilable subset: the
     pipeline must answer [Error Unsupported], not raise or loop *)
  let p =
    parse
      {|
      PROGRAM T
      CALL A(3)
      END
      SUBROUTINE A(N)
      INTEGER N
      IF (N .GT. 0) THEN
        CALL A(N - 1)
      ENDIF
      END
|}
  in
  match Codegen.Compile.build p with
  | Error (Codegen.Compile.Unsupported _) -> ()
  | Error e ->
    Alcotest.failf "expected Unsupported, got %s"
      (Codegen.Compile.error_to_string e)
  | Ok _ -> Alcotest.fail "recursive program compiled"

let missing_toolchain_is_error () =
  (* with an empty PATH the pipeline must degrade to [Error Toolchain] *)
  let saved = Sys.getenv_opt "PATH" in
  Unix.putenv "PATH" "";
  Fun.protect
    ~finally:(fun () ->
      match saved with Some p -> Unix.putenv "PATH" p | None -> ())
    (fun () ->
      let w = List.hd Workloads.all in
      match Codegen.Compile.build (Workloads.program w) with
      | Error (Codegen.Compile.Toolchain _) -> ()
      | Error e ->
        Alcotest.failf "expected Toolchain, got %s"
          (Codegen.Compile.error_to_string e)
      | Ok _ -> Alcotest.fail "compiled without a PATH")

let generate_source () =
  (* -o path: emission alone needs no toolchain and marks its output *)
  let w = List.hd Workloads.all in
  match Codegen.Compile.generate (Workloads.program w) with
  | Error e -> Alcotest.failf "generate: %s" (Codegen.Compile.error_to_string e)
  | Ok src ->
    check_bool "generated source is non-trivial" true (String.length src > 500);
    check_bool "registers an entry" true
      (let needle = "Codegen.Registry.register" in
       let n = String.length needle in
       let rec find i =
         i + n <= String.length src
         && (String.sub src i n = needle || find (i + 1))
       in
       find 0)

let stress_named_scales () =
  check_bool "smoke parses" true
    (Result.is_ok (Workloads.stress "stress:deep@smoke"));
  check_bool "tiny parses" true
    (Result.is_ok (Workloads.stress "stress:wide@tiny"));
  check_bool "full parses" true
    (Result.is_ok (Workloads.stress "stress:many-units@full"));
  check_bool "junk scale still rejected" true
    (Result.is_error (Workloads.stress "stress:deep@huge"));
  (* smoke is the size the pins and the stress tests name *)
  check_bool "smoke = Stress.smoke" true
    (Workloads.stress "stress:deep@smoke"
    = Ok (Oracle.Stress.generate ~seed:42 (Oracle.Stress.smoke Oracle.Stress.deep)))

let case name f = Alcotest.test_case name `Quick f

let suite =
  [
    case "stress named scales parse" stress_named_scales;
    case "unsupported program is a clean error" unsupported_is_error;
    case "missing toolchain is a clean error" missing_toolchain_is_error;
    case "generated source is inspectable" generate_source;
    case "a CALL-killed scalar lowers as a private"
      lowered_plan_is_interprocedural;
  ]
  @
  if not toolchain_available then begin
    Printf.printf "  [codegen] no native toolchain; compile cases skipped\n%!";
    []
  end
  else
    [
      case "every workload: compiled = interpreted" all_workloads;
      case "stress program at smoke scale" stress_smoke;
      case "oracle corpus survives codegen" corpus_through_codegen;
    ]
