(* Tests for the implemented-extension features: array privatization,
   tiling, loop addressing, call-graph/outline commands, DATA
   statements, write-out. *)

open Fortran_front
open Dependence
open Util

let suite =
  [
    case "array privatization: sweep-covered work array" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(8,8), W(8)\n      DO I = 1, 8\n        DO J = 1, 8\n          W(J) = FLOAT(I*J)\n        ENDDO\n        DO J = 1, 8\n          A(I,J) = W(J) + 1.0\n        ENDDO\n      ENDDO\n      PRINT *, A(4,4)\n      END\n"
        in
        let i = loop_sid (loop_by_iv env "I") in
        check_bool "W private" true (Arrayprivate.privatizable env i "W");
        let ddg = ddg_of env in
        check_bool "loop parallel" true (Ddg.blocking env ddg i = []));
    case "array privatization: live-after array is not private" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(8,8), W(8)\n      DO I = 1, 8\n        DO J = 1, 8\n          W(J) = FLOAT(I*J)\n        ENDDO\n        DO J = 1, 8\n          A(I,J) = W(J)\n        ENDDO\n      ENDDO\n      PRINT *, W(3)\n      END\n"
        in
        let i = loop_sid (loop_by_iv env "I") in
        check_bool "W not private (read after)" false
          (Arrayprivate.privatizable env i "W"));
    case "array privatization: partial sweep does not cover" (fun () ->
        (* the write sweep covers 2..8 but iteration reads W(J) for 1..8 *)
        let env =
          env_of
            "      PROGRAM P\n      REAL A(8,8), W(8)\n      DO I = 1, 8\n        DO J = 2, 8\n          W(J) = FLOAT(I*J)\n        ENDDO\n        DO J = 1, 8\n          A(I,J) = W(J)\n        ENDDO\n      ENDDO\n      PRINT *, A(4,4)\n      END\n"
        in
        let i = loop_sid (loop_by_iv env "I") in
        check_bool "W not private (bounds differ)" false
          (Arrayprivate.privatizable env i "W"));
    case "array privatization: conditional write does not cover" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(8,8), W(8)\n      DO I = 1, 8\n        DO J = 1, 8\n          IF (J .GT. 2) THEN\n            W(J) = FLOAT(I*J)\n          ENDIF\n        ENDDO\n        DO J = 1, 8\n          A(I,J) = W(J)\n        ENDDO\n      ENDDO\n      PRINT *, A(4,4)\n      END\n"
        in
        let i = loop_sid (loop_by_iv env "I") in
        check_bool "W not private (guarded write)" false
          (Arrayprivate.privatizable env i "W"));
    case "array privatization: straight-line same-subscript coverage" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(8), W(8)\n      DO I = 1, 8\n        W(1) = FLOAT(I)\n        A(I) = W(1) * 2.0\n      ENDDO\n      PRINT *, A(4)\n      END\n"
        in
        let i = loop_sid (loop_by_iv env "I") in
        check_bool "W private (rule A)" true (Arrayprivate.privatizable env i "W");
        let ddg = ddg_of env in
        check_bool "parallel" true (Ddg.blocking env ddg i = []));
    case "array privatization: config switch disables" (fun () ->
        let config =
          { Depenv.full_config with Depenv.use_array_privatization = false }
        in
        let env =
          env_of ~config
            "      PROGRAM P\n      REAL A(8), W(8)\n      DO I = 1, 8\n        W(1) = FLOAT(I)\n        A(I) = W(1) * 2.0\n      ENDDO\n      PRINT *, A(4)\n      END\n"
        in
        let i = loop_sid (loop_by_iv env "I") in
        check_bool "disabled" false (Arrayprivate.privatizable env i "W"));
    case "arrpriv workload semantics under parallel orders" (fun () ->
        let w = Option.get (Workloads.by_name "arrpriv") in
        let sess =
          Ped.Session.load (Workloads.program w)
            ~unit_name:(Workloads.main_unit w)
        in
        ignore (Ped.Session.parallelize_safe_loops sess);
        let p = Ped.Session.program sess in
        let a = Sim.Interp.run ~par_order:Sim.Interp.Seq p in
        let b = Sim.Interp.run ~par_order:Sim.Interp.Reverse p in
        (* NOTE: the privatized work array is still shared storage in
           the simulator; sequential execution of iterations in any
           order is safe because each iteration rewrites it fully *)
        check_bool "order independent" true
          (Sim.Interp.outputs_match a.Sim.Interp.output b.Sim.Interp.output));
    case "tile: diagnosis and semantics on matmul init nest" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(12,12)\n      S = 0.0\n      DO I = 1, 12\n        DO J = 1, 12\n          A(I,J) = FLOAT(I) * 3.0 + FLOAT(J)\n          S = S + A(I,J)\n        ENDDO\n      ENDDO\n      PRINT *, S\n      END\n"
        in
        let ddg = ddg_of env in
        let i = loop_sid (loop_by_iv env "I") in
        let d = Transform.Tile.diagnose ~analyze:(analyzer env) env ddg i ~block:4 in
        check_bool "ok" true (Transform.Diagnosis.ok d);
        let u' = Transform.Tile.apply env ddg i ~block:4 in
        let before = Sim.Interp.run { Ast.punits = [ env.Depenv.punit ] } in
        let after = Sim.Interp.run { Ast.punits = [ u' ] } in
        check_bool "semantics" true
          (Sim.Interp.outputs_match before.Sim.Interp.output
             after.Sim.Interp.output);
        (* the tiled program has three loops *)
        let env' = fst (analyzer env u') in
        check_int "three loops" 3
          (List.length (Loopnest.loops env'.Depenv.nest)));
    case "tile: refuses non-nests" (fun () ->
        let env =
          env_of
            "      PROGRAM P\n      REAL A(12)\n      DO I = 1, 12\n        A(I) = 1.0\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let d =
          Transform.Tile.diagnose ~analyze:(analyzer env) env ddg (loop_sid (loop_by_iv env "I"))
            ~block:4
        in
        check_bool "inapplicable" false d.Transform.Diagnosis.applicable);
    case "command: lN loop addressing" (fun () ->
        let w = Option.get (Workloads.by_name "matmul") in
        let sess =
          Ped.Session.load (Workloads.program w) ~unit_name:"MATMUL"
        in
        let out = Ped.Command.run sess "select l3" in
        check_bool "selected the K loop" true (contains ~needle:"selected" out);
        let k = loop_by_iv (Ped.Session.env sess) "K" in
        check_bool "selection is K" true
          ((Ped.Session.selected sess) = Some (loop_sid k)));
    case "command: callgraph and outline" (fun () ->
        let w = Option.get (Workloads.by_name "spec77x") in
        let sess =
          Ped.Session.load (Workloads.program w) ~unit_name:"SPEC77"
        in
        let cg = Ped.Command.run sess "callgraph" in
        check_bool "edges" true (contains ~needle:"SPEC77 -> COLUMN" cg);
        let dot = Ped.Command.run sess "callgraph dot" in
        check_bool "dot" true (contains ~needle:"digraph" dot);
        let o = Ped.Command.run sess "outline" in
        check_bool "has call" true (contains ~needle:"CALL COLUMN" o);
        check_bool "has loop" true (contains ~needle:"DO STEP" o));
    case "command: write saves parseable Fortran" (fun () ->
        let w = Option.get (Workloads.by_name "daxpy") in
        let sess =
          Ped.Session.load (Workloads.program w) ~unit_name:"DAXPY"
        in
        ignore (Ped.Command.run sess "apply parallelize l2");
        let path = Filename.temp_file "ped" ".f" in
        let out = Ped.Command.run sess (Printf.sprintf "write %s" path) in
        check_bool "wrote" true (contains ~needle:"wrote" out);
        let ic = open_in path in
        let n = in_channel_length ic in
        let src = really_input_string ic n in
        close_in ic;
        Sys.remove path;
        check_bool "has PARALLEL DO" true (contains ~needle:"PARALLEL DO" src);
        let p = Parser.parse_program ~file:"saved.f" src in
        check_int "one unit" 1 (List.length p.Ast.punits));
    case "DATA: round-trips through the pretty printer" (fun () ->
        let u =
          parse_unit
            "      PROGRAM P\n      REAL X\n      DATA X /-2.5/\n      PRINT *, X\n      END\n"
        in
        let printed = Pretty.unit_to_string u in
        check_bool "prints DATA" true (contains ~needle:"DATA X" printed);
        let u2 = parse_unit printed in
        let d = List.find (fun (d : Ast.decl) -> d.Ast.dname = "X") u2.Ast.decls in
        check_bool "kept" true (d.Ast.data_init <> None));
    case "sympro: constants stage unlocks loop 2, symbolics loop 3" (fun () ->
        let w = Option.get (Workloads.by_name "sympro") in
        let p = Workloads.program w in
        let count config =
          List.fold_left
            (fun acc u ->
              let env = Depenv.make ~config (Unit_syntax.build u) in
              let ddg = Ddg.compute env in
              acc
              + List.length
                  (List.filter
                     (fun (l : Loopnest.loop) ->
                       Ddg.blocking env ddg (loop_sid l) = [])
                     (Loopnest.loops env.Depenv.nest)))
            0 p.Ast.punits
        in
        let base = count Depenv.base_config in
        let const = count { Depenv.base_config with Depenv.use_constants = true } in
        let symb =
          count
            { Depenv.base_config with Depenv.use_constants = true;
              use_symbolics = true }
        in
        check_int "base" 1 base;
        check_int "+const" 2 const;
        check_int "+symb" 3 symb);
  ]

let more =
  [
    case "deps dot renders the selection's dependences" (fun () ->
        let w = Option.get (Workloads.by_name "tridiag") in
        let sess = Ped.Session.load (Workloads.program w) ~unit_name:"TRIDIA" in
        let blocked =
          List.find
            (fun (l : Loopnest.loop) ->
              not (Ped.Session.is_parallelizable sess (loop_sid l)))
            (Ped.Session.loops sess)
        in
        ignore (Ped.Command.run sess (Printf.sprintf "select s%d" (loop_sid blocked)));
        let dot = Ped.Command.run sess "deps dot" in
        check_bool "digraph" true (contains ~needle:"digraph ddg" dot);
        check_bool "labeled true dep" true (contains ~needle:"true" dot));
    case "advisor suggests expansion for last-value escapees" (fun () ->
        let sess =
          Ped.Session.load_source ~file:"t.f"
            "      PROGRAM P\n      REAL A(64), T\n      DO I = 1, 64\n        T = FLOAT(I) * 2.0\n        A(I) = T + 1.0\n      ENDDO\n      PRINT *, T\n      END\n"
            ~unit_name:None
        in
        let sugg = Ped.Advisor.advise sess in
        check_bool "expand suggested" true
          (List.exists
             (fun (s : Ped.Advisor.suggestion) -> s.Ped.Advisor.action = "expand")
             sugg));
    case "expand then parallelize unlocks the escapee loop" (fun () ->
        let sess =
          Ped.Session.load_source ~file:"t.f"
            "      PROGRAM P\n      REAL A(64), T\n      DO I = 1, 64\n        T = FLOAT(I) * 2.0\n        A(I) = T + 1.0\n      ENDDO\n      PRINT *, T\n      END\n"
            ~unit_name:None
        in
        let l1 = List.hd (Ped.Session.loops sess) in
        check_bool "blocked before" false
          (Ped.Session.is_parallelizable sess (loop_sid l1));
        (match
           Ped.Session.transform sess "expand"
             (Transform.Catalog.With_var (loop_sid l1, "T"))
         with
        | Ok (_, true) -> ()
        | Ok (_, false) -> Alcotest.fail "expand not applied"
        | Error e -> Alcotest.fail e);
        let l1 = List.hd (Ped.Session.loops sess) in
        check_bool "parallel after" true
          (Ped.Session.is_parallelizable sess (loop_sid l1));
        (match Ped.Session.simulate sess with
        | Ok (_, _, out) -> check_string "T preserved" "128" (List.hd out)
        | Error e -> Alcotest.fail e));
  ]

let suite = suite @ more

let range_suite =
  [
    case "asserted ranges do not apply to subscript offsets" (fun () ->
        (* A(I) = A(I+M): the range on M bounds nothing here — only
           trip counts use ranges; the dependence stays assumed *)
        let asserts =
          { Depenv.no_assertions with
            Depenv.asserted_ranges = [ ("M", 100, 200) ] }
        in
        (* also range the loop bound so the trip count is bounded *)
        let env =
          env_of ~asserts
            "      PROGRAM P\n      REAL A(400)\n      INTEGER M\n      DO I = 1, 50\n        A(I) = A(I+M)\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        (* ranges bound trip counts only; a symbolic subscript offset
           still defeats the tests (conservative) *)
        check_bool "blocked (symbolic offset)" false
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "asserted trip range alone cannot prove existence" (fun () ->
        (* N in [4,60]: trip bounded above by 60; A(I) vs A(I+30) may
           or may not overlap depending on the true N — the dep must
           stay pending, never proven *)
        let asserts =
          { Depenv.no_assertions with
            Depenv.asserted_ranges = [ ("N", 4, 60) ] }
        in
        let env =
          env_of ~asserts
            "      PROGRAM P\n      REAL A(200)\n      INTEGER N\n      DO I = 1, N\n        A(I) = A(I+30)\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        let blockers = Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) in
        check_bool "still blocked" true (blockers <> []);
        check_bool "pending, not proven" true
          (List.for_all (fun (d : Ddg.dep) -> not d.Ddg.exact) blockers));
    case "asserted trip range disproves when small enough" (fun () ->
        (* N in [1,20]: trip at most 20, offset 30 > 19 -> independent *)
        let asserts =
          { Depenv.no_assertions with
            Depenv.asserted_ranges = [ ("N", 1, 20) ] }
        in
        let env =
          env_of ~asserts
            "      PROGRAM P\n      REAL A(200)\n      INTEGER N\n      DO I = 1, N\n        A(I) = A(I+30)\n      ENDDO\n      END\n"
        in
        let ddg = ddg_of env in
        check_bool "parallel" true
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "assert in command" (fun () ->
        let sess =
          Ped.Session.load_source ~file:"t.f"
            "      PROGRAM P\n      REAL A(200)\n      INTEGER N\n      DO I = 1, N\n        A(I) = A(I+30)\n      ENDDO\n      END\n"
            ~unit_name:None
        in
        let l = List.hd (Ped.Session.loops sess) in
        check_bool "blocked" false (Ped.Session.is_parallelizable sess (loop_sid l));
        let out = Ped.Command.run sess "assert N in 1 20" in
        check_bool "ack" true (contains ~needle:"asserted" out);
        let l = List.hd (Ped.Session.loops sess) in
        check_bool "unlocked" true (Ped.Session.is_parallelizable sess (loop_sid l)));
  ]

let suite = suite @ range_suite
