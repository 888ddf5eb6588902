open Fortran_front
open Util

let two_units =
  "      PROGRAM P\n\
  \      REAL A(10), X\n\
  \      CALL TOUCH(A, X)\n\
  \      END\n\
  \      SUBROUTINE TOUCH(B, Y)\n\
  \      REAL B(10), Y\n\
  \      B(1) = Y\n\
  \      END\n"

let suite =
  [
    case "callgraph sites and order" (fun () ->
        let cg = Interproc.Callgraph.build (parse two_units) in
        check_int "one site" 1 (List.length (Interproc.Callgraph.sites cg));
        check_bool "callee of P" true
          (Interproc.Callgraph.callees_of cg "P" = [ "TOUCH" ]);
        check_bool "callers of TOUCH" true
          (Interproc.Callgraph.callers_of cg "TOUCH" = [ "P" ]);
        match Interproc.Callgraph.bottom_up cg with
        | [ "TOUCH"; "P" ] -> ()
        | o -> Alcotest.failf "bad order: %s" (String.concat "," o));
    case "modref: formal mod and ref" (fun () ->
        let cg = Interproc.Callgraph.build (parse two_units) in
        let mr = Interproc.Modref.compute cg in
        match Interproc.Modref.summary_of mr "TOUCH" with
        | Some s ->
          check_bool "B modified" true (Interproc.Modref.SSet.mem "B" s.Interproc.Modref.mods);
          check_bool "Y referenced" true (Interproc.Modref.SSet.mem "Y" s.Interproc.Modref.refs);
          check_bool "Y not modified" false (Interproc.Modref.SSet.mem "Y" s.Interproc.Modref.mods)
        | None -> Alcotest.fail "no summary");
    case "modref: translation to caller names" (fun () ->
        let cg = Interproc.Callgraph.build (parse two_units) in
        let mr = Interproc.Modref.compute cg in
        let site = List.hd (Interproc.Callgraph.sites cg) in
        let caller = Option.get (Interproc.Callgraph.unit_named cg "P") in
        let tbl = Symbol.build caller in
        let mods, refs = Interproc.Modref.translate mr ~site ~tbl in
        check_bool "A modified" true (List.mem "A" mods);
        check_bool "X referenced" true (List.mem "X" refs);
        check_bool "X not modified" false (List.mem "X" mods));
    case "modref: transitive through wrappers" (fun () ->
        let src =
          "      PROGRAM P\n      REAL A(10)\n      CALL OUTER(A)\n      END\n\
          \      SUBROUTINE OUTER(B)\n      REAL B(10)\n      CALL INNER(B)\n      END\n\
          \      SUBROUTINE INNER(C)\n      REAL C(10)\n      C(1) = 0.0\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let mr = Interproc.Modref.compute cg in
        match Interproc.Modref.summary_of mr "OUTER" with
        | Some s -> check_bool "B via INNER" true (Interproc.Modref.SSet.mem "B" s.Interproc.Modref.mods)
        | None -> Alcotest.fail "no summary");
    case "modref: common effects propagate" (fun () ->
        let src =
          "      PROGRAM P\n      COMMON /G/ Q\n      CALL S\n      END\n\
          \      SUBROUTINE S\n      COMMON /G/ Q\n      Q = 1.0\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let mr = Interproc.Modref.compute cg in
        match Interproc.Modref.summary_of mr "P" with
        | Some s -> check_bool "Q modified" true (Interproc.Modref.SSet.mem "Q" s.Interproc.Modref.mods)
        | None -> Alcotest.fail "no summary");
    case "kill: unconditional assignment kills" (fun () ->
        let src =
          "      PROGRAM P\n      CALL S(X)\n      END\n\
          \      SUBROUTINE S(Y)\n      Y = 1.0\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let mr = Interproc.Modref.compute cg in
        let k = Interproc.Ipkill.compute cg mr in
        check_bool "Y killed" true (List.mem "Y" (Interproc.Ipkill.kills_of k "S")));
    case "kill: conditional assignment does not kill" (fun () ->
        let src =
          "      SUBROUTINE S(Y, N)\n      IF (N .GT. 0) THEN\n      Y = 1.0\n      ENDIF\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let mr = Interproc.Modref.compute cg in
        let k = Interproc.Ipkill.compute cg mr in
        check_bool "not killed" false (List.mem "Y" (Interproc.Ipkill.kills_of k "S")));
    case "kill: use before def is not a kill" (fun () ->
        let src = "      SUBROUTINE S(Y)\n      Y = Y + 1.0\n      END\n" in
        let cg = Interproc.Callgraph.build (parse src) in
        let mr = Interproc.Modref.compute cg in
        let k = Interproc.Ipkill.compute cg mr in
        check_bool "not killed" false (List.mem "Y" (Interproc.Ipkill.kills_of k "S")));
    case "kill enables privatization through a call" (fun () ->
        (* T is killed by SETT on every iteration: loop parallelizes *)
        let src =
          "      PROGRAM P\n      REAL A(10), T\n      DO I = 1, 10\n        CALL SETT(T, I)\n        A(I) = T\n      ENDDO\n      PRINT *, A(1)\n      END\n\
          \      SUBROUTINE SETT(T, I)\n      T = 2.0 * I\n      END\n"
        in
        let p = parse src in
        let summ = Interproc.Summary.analyze p in
        let u = List.hd p.Ast.punits in
        let env = Interproc.Summary.env_for summ u in
        let ddg = Dependence.Ddg.compute env in
        check_bool "parallel" true
          (Dependence.Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []);
        (* without interprocedural analysis the same loop blocks *)
        let env0 = Dependence.Depenv.make (Dependence.Unit_syntax.build u) in
        let ddg0 = Dependence.Ddg.compute env0 in
        check_bool "blocked without" false
          (Dependence.Ddg.blocking env0 ddg0 (loop_sid (loop_by_iv env0 "I")) = []));
    case "sections: row writes are disjoint across iterations" (fun () ->
        let w = Option.get (Workloads.by_name "callnest") in
        let p = Workloads.program w in
        let summ = Interproc.Summary.analyze p in
        let u = List.hd p.Ast.punits in
        let env = Interproc.Summary.env_for summ u in
        let ddg = Dependence.Ddg.compute env in
        List.iter
          (fun (l : Dependence.Loopnest.loop) ->
            check_bool "parallel" true
              (Dependence.Ddg.blocking env ddg (loop_sid l) = []))
          (Dependence.Loopnest.loops env.Dependence.Depenv.nest));
    case "sections summary shape" (fun () ->
        let w = Option.get (Workloads.by_name "callnest") in
        let cg = Interproc.Callgraph.build (Workloads.program w) in
        let sec = Interproc.Sections.compute cg in
        match List.assoc_opt "A" (Interproc.Sections.summary_of sec "INITRO") with
        | Some { Interproc.Sections.sec_w = Some [ d1; d2 ]; _ } ->
          (match d1 with
          | Interproc.Sections.Point _ -> ()
          | _ -> Alcotest.fail "dim1 should be a point (the row index)");
          (match d2 with
          | Interproc.Sections.Range _ | Interproc.Sections.Point _ -> ()
          | Interproc.Sections.Star -> Alcotest.fail "dim2 should be bounded")
        | _ -> Alcotest.fail "no write section for A");
    case "ipconst: consistent literal reaches callee" (fun () ->
        let src =
          "      PROGRAM P\n      CALL S(8)\n      CALL S(8)\n      END\n\
          \      SUBROUTINE S(N)\n      INTEGER N\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let ic = Interproc.Ipconst.compute cg in
        check_bool "N=8" true (Interproc.Ipconst.constants_of ic "S" = [ ("N", 8) ]));
    case "ipconst: conflicting sites give nothing" (fun () ->
        let src =
          "      PROGRAM P\n      CALL S(8)\n      CALL S(9)\n      END\n\
          \      SUBROUTINE S(N)\n      INTEGER N\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let ic = Interproc.Ipconst.compute cg in
        check_bool "none" true (Interproc.Ipconst.constants_of ic "S" = []));
    case "ipconst: parameters evaluate at the call site" (fun () ->
        let src =
          "      PROGRAM P\n      INTEGER N\n      PARAMETER (N = 4)\n      CALL S(2*N)\n      END\n\
          \      SUBROUTINE S(M)\n      INTEGER M\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let ic = Interproc.Ipconst.compute cg in
        check_bool "M=8" true (Interproc.Ipconst.constants_of ic "S" = [ ("M", 8) ]));
    case "ipconst: transitive through one level" (fun () ->
        let src =
          "      PROGRAM P\n      CALL MID(6)\n      END\n\
          \      SUBROUTINE MID(N)\n      INTEGER N\n      CALL LEAF(N)\n      END\n\
          \      SUBROUTINE LEAF(M)\n      INTEGER M\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let ic = Interproc.Ipconst.compute cg in
        check_bool "M=6" true (Interproc.Ipconst.constants_of ic "LEAF" = [ ("M", 6) ]));
    case "unknown callee treated conservatively" (fun () ->
        let src =
          "      PROGRAM P\n      REAL A(10)\n      DO I = 1, 10\n        CALL MYSTERY(A, I)\n      ENDDO\n      END\n"
        in
        let p = parse src in
        let summ = Interproc.Summary.analyze p in
        let u = List.hd p.Ast.punits in
        let env = Interproc.Summary.env_for summ u in
        let ddg = Dependence.Ddg.compute env in
        check_bool "blocked" false
          (Dependence.Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
  ]

let alias_suite =
  [
    case "aliased formals block false independence" (fun () ->
        (* S sees X and Y as distinct, but P passes A twice: the loop
           in S writes X(I) and reads Y(I+1) = X(I+1) — a real carried
           dependence *)
        let src =
          "      PROGRAM P\n      REAL A(20)\n      CALL S(A, A, 20)\n      END\n\
          \      SUBROUTINE S(X, Y, N)\n      INTEGER N, I\n      REAL X(N), Y(N)\n      DO I = 1, N-1\n        X(I) = Y(I+1) * 0.5\n      ENDDO\n      END\n"
        in
        let p = parse src in
        let summ = Interproc.Summary.analyze p in
        let s_unit =
          List.find (fun (u : Ast.program_unit) -> u.Ast.uname = "S") p.Ast.punits
        in
        let env = Interproc.Summary.env_for summ s_unit in
        let ddg = Dependence.Ddg.compute env in
        check_bool "blocked via alias" false
          (Dependence.Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []);
        (* without the alias information the loop would look parallel *)
        let env0 = Dependence.Depenv.make (Dependence.Unit_syntax.build s_unit) in
        let ddg0 = Dependence.Ddg.compute env0 in
        check_bool "looks parallel without" true
          (Dependence.Ddg.blocking env0 ddg0 (loop_sid (loop_by_iv env0 "I")) = []));
    case "aligned alias still allows disproof by subscripts" (fun () ->
        (* X(I) vs Y(I): aligned alias means same element — only a
           same-iteration relation, so the loop stays parallel *)
        let src =
          "      PROGRAM P\n      REAL A(20)\n      CALL S(A, A, 20)\n      END\n\
          \      SUBROUTINE S(X, Y, N)\n      INTEGER N, I\n      REAL X(N), Y(N)\n      DO I = 1, N\n        X(I) = Y(I) * 0.5\n      ENDDO\n      END\n"
        in
        let p = parse src in
        let summ = Interproc.Summary.analyze p in
        let s_unit =
          List.find (fun (u : Ast.program_unit) -> u.Ast.uname = "S") p.Ast.punits
        in
        let env = Interproc.Summary.env_for summ s_unit in
        let ddg = Dependence.Ddg.compute env in
        check_bool "parallel" true
          (Dependence.Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "offset actual degrades to may-alias" (fun () ->
        (* CALL S(A, A(3)): unknown overlap — even same subscripts must
           be assumed dependent *)
        let src =
          "      PROGRAM P\n      REAL A(30)\n      CALL S(A, A(3), 20)\n      END\n\
          \      SUBROUTINE S(X, Y, N)\n      INTEGER N, I\n      REAL X(N), Y(N)\n      DO I = 1, N\n        X(I) = Y(I) * 0.5\n      ENDDO\n      END\n"
        in
        let p = parse src in
        let summ = Interproc.Summary.analyze p in
        let s_unit =
          List.find (fun (u : Ast.program_unit) -> u.Ast.uname = "S") p.Ast.punits
        in
        let env = Interproc.Summary.env_for summ s_unit in
        let ddg = Dependence.Ddg.compute env in
        check_bool "blocked" false
          (Dependence.Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "alias propagates through wrappers" (fun () ->
        let src =
          "      PROGRAM P\n      REAL A(20)\n      CALL MID(A, A)\n      END\n\
          \      SUBROUTINE MID(U, V)\n      REAL U(20), V(20)\n      CALL LEAF(U, V)\n      END\n\
          \      SUBROUTINE LEAF(X, Y)\n      REAL X(20), Y(20)\n      X(1) = Y(2)\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let al = Interproc.Aliases.compute cg in
        check_bool "leaf pair" true
          (Interproc.Aliases.query al "LEAF" "X" "Y" = `Aligned));
    case "distinct arrays stay unaliased" (fun () ->
        let src =
          "      PROGRAM P\n      REAL A(20), B(20)\n      CALL S(A, B, 20)\n      END\n\
          \      SUBROUTINE S(X, Y, N)\n      INTEGER N\n      REAL X(N), Y(N)\n      X(1) = Y(1)\n      END\n"
        in
        let cg = Interproc.Callgraph.build (parse src) in
        let al = Interproc.Aliases.compute cg in
        check_bool "no alias" true (Interproc.Aliases.query al "S" "X" "Y" = `No));
    case "simulator agrees: aliased recurrence is order dependent" (fun () ->
        (* force-parallelize the aliased loop and watch the orders
           disagree — the alias analysis prevents exactly this *)
        let src order =
          ignore order;
          "      PROGRAM P\n      REAL A(20)\n      INTEGER I\n      DO I = 1, 20\n        A(I) = FLOAT(I)\n      ENDDO\n      CALL S(A, A, 20)\n      PRINT *, A(1)\n      END\n\
          \      SUBROUTINE S(X, Y, N)\n      INTEGER N, I\n      REAL X(N), Y(N)\n      PARALLEL DO I = 1, N-1\n        X(I) = Y(I+1) * 0.5\n      ENDDO\n      END\n"
        in
        let a = Sim.Interp.run ~par_order:Sim.Interp.Seq (parse (src ())) in
        let b = Sim.Interp.run ~par_order:Sim.Interp.Reverse (parse (src ())) in
        check_bool "orders differ" false
          (Sim.Interp.outputs_match a.Sim.Interp.output b.Sim.Interp.output));
  ]

let suite = suite @ alias_suite

(* The first unit whose kills differ from the string-set reference
   solver's, given the same callee kills. *)
let kills_mismatch (prog : Ast.program) =
  let s = Interproc.Summary.analyze prog in
  let cg = Interproc.Summary.callgraph s and k = Interproc.Summary.kills s in
  let callee name =
    match Interproc.Ipkill.kills_of k name with
    | [] -> None
    | l -> Some (Ref_scalar.SSet.of_list l)
  in
  List.find_map
    (fun (u : Ast.program_unit) ->
      let got = Interproc.Ipkill.kills_of k u.Ast.uname
      and want = Ref_scalar.SSet.elements (Ref_scalar.unit_kills cg callee u) in
      if got = want then None
      else
        Some
          (Printf.sprintf "%s kills [%s], reference [%s]" u.Ast.uname
             (String.concat " " got) (String.concat " " want)))
    prog.Ast.punits

(* A random GOTO program as two subroutines whose scalars are all
   formals: FUZZ, and WRAP, which calls FUZZ on its own formals and
   then runs the same body, so kills also cross a call. *)
let gen_kill_program =
  QCheck2.Gen.map
    (fun (p : Ast.program) ->
      let u = List.hd p.Ast.punits in
      let formals =
        List.filter_map
          (fun (i : Symbol.info) ->
            match i.kind with
            | Symbol.Scalar when i.param = None -> Some i.name
            | _ -> None)
          (Symbol.infos (Symbol.build u))
      in
      let sub name body = { u with Ast.uname = name; kind = Ast.Subroutine formals; body } in
      let call = Ast.mk (Ast.Call ("FUZZ", List.map (fun f -> Ast.Var f) formals)) in
      Ast.renumber_program
        { Ast.punits = [ sub "FUZZ" u.Ast.body; sub "WRAP" (call :: u.Ast.body) ] })
    Test_dataflow.gen_goto_program

let kills_match_reference =
  QCheck2.Test.make ~count:60 ~name:"kills equal the string-set reference"
    ~print:Pretty.program_to_string gen_kill_program (fun p ->
      match kills_mismatch p with
      | None -> true
      | Some what -> QCheck2.Test.fail_reportf "kills differ: %s" what)

(* Every environment of a unit the summary holds, whatever its
   assertions, is built on the call graph's syntax record. *)
let envs_share_the_record (prog : Ast.program) =
  let s = Interproc.Summary.analyze prog in
  let cg = Interproc.Summary.callgraph s in
  let asserted =
    { Dependence.Depenv.no_assertions with asserted_values = [ ("N", 64) ] }
  in
  List.iter
    (fun (u : Ast.program_unit) ->
      let r = Interproc.Callgraph.syntax cg u in
      List.iter
        (fun (what, (env : Dependence.Depenv.t)) ->
          let shared name ok =
            if not ok then Alcotest.failf "%s, %s: %s not shared" u.Ast.uname what name
          in
          shared "symbol table" (env.tbl == Dependence.Unit_syntax.symbols r);
          shared "CFG" (env.cfg == Dependence.Unit_syntax.cfg r);
          shared "loop nest" (env.nest == Dependence.Unit_syntax.nest r);
          shared "control dependences" (env.control == Dependence.Unit_syntax.control r))
        [
          ("first", Interproc.Summary.env_for s u);
          ("asserted", Interproc.Summary.env_for ~asserts:asserted s u);
        ])
    prog.Ast.punits

let record_suite =
  [
    case "kills equal the reference on the programs" (fun () ->
        List.iter
          (fun (name, prog) ->
            Option.iter (Alcotest.failf "%s: %s" name) (kills_mismatch prog))
          (Test_dataflow.scalar_programs ()));
    qcheck_case kills_match_reference;
    case "summary: environments share the unit's syntax record" (fun () ->
        List.iter
          (fun w -> envs_share_the_record (Workloads.program w))
          Workloads.all;
        envs_share_the_record (parse two_units));
    case "summary: an engine's rebuilt environment keeps the record" (fun () ->
        let w = Option.get (Workloads.by_name "callnest") in
        let e = Engine.create (Workloads.program w) in
        let name = (Ast.entry_unit (Engine.program e)).Ast.uname in
        let before = Option.get (Engine.env e ~unit_name:name) in
        Engine.set_assertions e
          { Dependence.Depenv.no_assertions with asserted_values = [ ("N", 64) ] };
        let after = Option.get (Engine.env e ~unit_name:name) in
        check_bool "a new environment" true (before != after);
        check_bool "same symbol table" true (before.tbl == after.tbl);
        check_bool "same CFG" true (before.cfg == after.cfg));
  ]

let suite = suite @ record_suite
