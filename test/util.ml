(* Shared helpers for the test suites. *)

open Fortran_front

let parse src = Parser.parse_program ~file:"test.f" src

let parse_unit src =
  match (parse src).Ast.punits with
  | u :: _ -> u
  | [] -> failwith "empty program"

(* Wrap loose statements in a PROGRAM for quick parsing. *)
let parse_body ?(decls = "") body =
  let src =
    Printf.sprintf "      PROGRAM T\n%s\n%s\n      END\n" decls body
  in
  parse_unit src

let env_of ?config ?asserts src = Dependence.Depenv.make ?config ?asserts (Dependence.Unit_syntax.build (parse_unit src))

let ddg_of env = Dependence.Ddg.compute env

(* The analyzer of candidate rewrites of [env]'s unit, as a session
   has it: an intraprocedural engine over the one-unit program, under
   [env]'s config and assertions. *)
let analyzer (env : Dependence.Depenv.t) =
  let engine =
    Engine.create ~interproc:false ~config:env.Dependence.Depenv.config
      { Ast.punits = [ env.Dependence.Depenv.punit ] }
  in
  Engine.set_assertions engine env.Dependence.Depenv.asserts;
  Engine.candidate engine

(* A loop whose scalar X only the interprocedural kill of CALL F(X, I)
   makes private; the suites run from the build's test directory. *)
let interproc_private () =
  Parser.parse_program ~file:"interproc_private.f"
    (In_channel.with_open_bin "cli/interproc_private.f" In_channel.input_all)

(* Every loop of every unit the editor approves, marked PARALLEL DO. *)
let editor_parallelized program =
  fst (Oracle.Runcheck.parallelize_approved program)

(* The i-th loop (preorder) of the unit. *)
let nth_loop env i =
  List.nth (Dependence.Loopnest.loops env.Dependence.Depenv.nest) i

let loop_by_iv env iv =
  List.find
    (fun (l : Dependence.Loopnest.loop) ->
      String.equal l.Dependence.Loopnest.header.Ast.dvar iv)
    (Dependence.Loopnest.loops env.Dependence.Depenv.nest)

let loop_sid lp = lp.Dependence.Loopnest.lstmt.Ast.sid

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let run_output ?honor_parallel ?par_order src =
  (Sim.Interp.run ?honor_parallel ?par_order (parse src)).Sim.Interp.output

let case name f = Alcotest.test_case name `Quick f

(* Property tests draw from QCHECK_SEED when set (reproduction),
   otherwise from fresh entropy; every suite routes through here so a
   failing property always ends with the command that replays it. *)
let qcheck_seed =
  lazy
    (match Sys.getenv_opt "QCHECK_SEED" with
    | Some s when int_of_string_opt (String.trim s) <> None ->
      Option.get (int_of_string_opt (String.trim s))
    | _ ->
      Random.self_init ();
      Random.int 1_000_000_000)

let qcheck_case test =
  let seed = Lazy.force qcheck_seed in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.eprintf "property failed: rerun with QCHECK_SEED=%d\n%!" seed;
        raise e )

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  nl = 0
  ||
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0
