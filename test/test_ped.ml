open Fortran_front
open Dependence
open Util

let mk_session ?(name = "daxpy") () =
  let w = Option.get (Workloads.by_name name) in
  Ped.Session.load (Workloads.program w) ~unit_name:(Workloads.main_unit w)

let suite =
  [
    case "marking: proven vs pending defaults" (fun () ->
        let sess = mk_session ~name:"matmul" () in
        let deps =
          List.filter
            (fun (d : Ddg.dep) -> not d.Ddg.is_scalar && d.Ddg.kind <> Ddg.Control)
            (Ped.Session.ddg sess).Ddg.deps
        in
        check_bool "some proven" true
          (List.exists
             (fun d -> Ped.Marking.status_of (Ped.Session.marking sess) d = Ped.Marking.Proven)
             deps));
    case "marking: reject unblocks a loop and survives reanalysis" (fun () ->
        let sess = mk_session ~name:"tridiag" () in
        let blocked =
          List.find
            (fun (l : Loopnest.loop) ->
              not (Ped.Session.is_parallelizable sess (loop_sid l)))
            (Ped.Session.loops sess)
        in
        let sid = loop_sid blocked in
        let blockers = Ped.Session.blocking sess sid in
        List.iter
          (fun (d : Ddg.dep) ->
            match Ped.Session.mark_dep sess d.Ddg.dep_id Ped.Marking.Rejected with
            | Ok () -> ()
            | Error e -> Alcotest.fail e)
          blockers;
        check_bool "unblocked" true (Ped.Session.is_parallelizable sess sid);
        (* reanalysis keeps the marks (keyed on stable signatures) *)
        Ped.Session.reanalyze sess;
        check_bool "still unblocked" true (Ped.Session.is_parallelizable sess sid));
    case "filters: carried only and by variable" (fun () ->
        let sess = mk_session ~name:"matmul" () in
        let all = List.length (Ped.Session.visible_deps sess) in
        Ped.Session.set_dep_filter sess          { Ped.Filter.default_dep_filter with Ped.Filter.f_carried_only = true };
        let carried = List.length (Ped.Session.visible_deps sess) in
        check_bool "filter shrinks" true (carried < all);
        Ped.Session.set_dep_filter sess          { Ped.Filter.default_dep_filter with Ped.Filter.f_var = Some "C" };
        List.iter
          (fun (d : Ddg.dep) -> check_string "var" "C" d.Ddg.var)
          (Ped.Session.visible_deps sess));
    case "filters: control hidden by default" (fun () ->
        let sess = mk_session ~name:"tridiag" () in
        check_bool "no control" true
          (List.for_all
             (fun (d : Ddg.dep) -> d.Ddg.kind <> Ddg.Control)
             (Ped.Session.visible_deps sess)));
    case "source filter: loops only" (fun () ->
        let sess = mk_session () in
        Ped.Session.set_src_filter sess Ped.Filter.Src_loops;
        let pane = Ped.Pane.source_pane sess in
        List.iter
          (fun line ->
            if String.trim line <> "" then
              check_bool "is loop header" true
                (contains ~needle:"DO " line))
          (String.split_on_char '\n' pane));
    case "session: select and variable pane" (fun () ->
        let sess = mk_session ~name:"sumred" () in
        let red_loop =
          List.find
            (fun (l : Loopnest.loop) -> l.Loopnest.depth = 1)
            (List.rev (Ped.Session.loops sess))
        in
        (match Ped.Session.select sess (loop_sid red_loop) with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let pane = Ped.Pane.variable_pane sess in
        check_bool "reduction shown" true (contains ~needle:"reduction(+)" pane));
    case "session: transform via catalog and undo" (fun () ->
        let sess = mk_session () in
        let l = List.hd (Ped.Session.loops sess) in
        let before = List.length (Ped.Session.loops sess) in
        (match
           Ped.Session.transform sess "strip"
             (Transform.Catalog.With_factor (loop_sid l, 4))
         with
        | Ok (_, true) -> ()
        | Ok (_, false) -> Alcotest.fail "strip not applied"
        | Error e -> Alcotest.fail e);
        check_int "one more loop" (before + 1) (List.length (Ped.Session.loops sess));
        (match Ped.Session.undo sess with Ok () -> () | Error e -> Alcotest.fail e);
        check_int "back to original" before (List.length (Ped.Session.loops sess)));
    case "session: unsafe transform refused unless forced" (fun () ->
        let sess = mk_session ~name:"tridiag" () in
        let blocked =
          List.find
            (fun (l : Loopnest.loop) ->
              not (Ped.Session.is_parallelizable sess (loop_sid l)))
            (Ped.Session.loops sess)
        in
        (match
           Ped.Session.transform sess "parallelize"
             (Transform.Catalog.On_loop (loop_sid blocked))
         with
        | Ok (_, applied) -> check_bool "refused" false applied
        | Error e -> Alcotest.fail e);
        match
          Ped.Session.transform ~force:true sess "parallelize"
            (Transform.Catalog.On_loop (loop_sid blocked))
        with
        | Ok (_, applied) -> check_bool "forced" true applied
        | Error e -> Alcotest.fail e);
    case "session: edit a statement and reanalyze" (fun () ->
        let sess =
          Ped.Session.load_source ~file:"t.f"
            "      PROGRAM P\n      REAL A(10)\n      DO I = 2, 10\n        A(I) = A(I-1)\n      ENDDO\n      END\n"
            ~unit_name:None
        in
        let l = List.hd (Ped.Session.loops sess) in
        check_bool "blocked" false (Ped.Session.is_parallelizable sess (loop_sid l));
        let body = Loopnest.body_stmts (Ped.Session.env sess).Depenv.nest (loop_sid l) in
        let stmt = List.hd body in
        (match
           Ped.Session.edit_stmt sess stmt.Fortran_front.Ast.sid "A(I) = FLOAT(I)"
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let l = List.hd (Ped.Session.loops sess) in
        check_bool "now parallel" true (Ped.Session.is_parallelizable sess (loop_sid l)));
    case "session: edit with syntax error is reported" (fun () ->
        let sess = mk_session () in
        let l = List.hd (Ped.Session.loops sess) in
        let body = Loopnest.body_stmts (Ped.Session.env sess).Depenv.nest (loop_sid l) in
        match
          Ped.Session.edit_stmt sess (List.hd body).Fortran_front.Ast.sid "DO == broken"
        with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "expected a syntax error");
    case "session: user privatization discounts scalar deps" (fun () ->
        let sess =
          Ped.Session.load_source ~file:"t.f"
            "      PROGRAM P\n      REAL A(10), T\n      DO I = 1, 10\n        IF (I .GT. 5) THEN\n          T = 1.0\n        ENDIF\n        A(I) = T\n      ENDDO\n      END\n"
            ~unit_name:None
        in
        let l = List.hd (Ped.Session.loops sess) in
        check_bool "blocked" false (Ped.Session.is_parallelizable sess (loop_sid l));
        ok_exn "private" (Ped.Session.privatize sess (loop_sid l) "T");
        check_bool "unblocked by user" true
          (Ped.Session.is_parallelizable sess (loop_sid l)));
    case "command: loops/select/deps/vars pipeline" (fun () ->
        let sess = mk_session ~name:"matmul" () in
        let out = Ped.Command.run sess "loops" in
        check_bool "has K" true (contains ~needle:"DO K" out);
        let k = loop_by_iv (Ped.Session.env sess) "K" in
        let out = Ped.Command.run sess (Printf.sprintf "select s%d" (loop_sid k)) in
        check_bool "selected" true (contains ~needle:"selected" out);
        let out = Ped.Command.run sess "deps carried" in
        check_bool "mentions C" true (contains ~needle:"C" out);
        let out = Ped.Command.run sess "vars" in
        check_bool "induction" true (contains ~needle:"induction" out));
    case "command: stats and estimate" (fun () ->
        let sess = mk_session ~name:"matmul" () in
        check_bool "stats" true
          (contains ~needle:"pairs tested" (Ped.Command.run sess "stats"));
        check_bool "estimate" true
          (contains ~needle:"predicted speedup" (Ped.Command.run sess "estimate 8")));
    case "command: unknown command reports error" (fun () ->
        let sess = mk_session () in
        check_bool "error" true
          (contains ~needle:"error" (Ped.Command.run sess "frobnicate")));
    case "command: mark with warning on proven dep" (fun () ->
        let sess = mk_session ~name:"matmul" () in
        let proven =
          List.find
            (fun (d : Ddg.dep) -> d.Ddg.exact && d.Ddg.kind <> Ddg.Control)
            (Ped.Session.ddg sess).Ddg.deps
        in
        let out =
          Ped.Command.run sess (Printf.sprintf "mark %d reject" proven.Ddg.dep_id)
        in
        check_bool "warns" true (contains ~needle:"warning" out));
    case "advisor: matmul suggests interchange" (fun () ->
        let sess = mk_session ~name:"matmul" () in
        let s = Ped.Advisor.advise sess in
        check_bool "interchange suggested" true
          (List.exists (fun (s : Ped.Advisor.suggestion) -> s.Ped.Advisor.action = "interchange") s));
    case "advisor: sor suggests skew" (fun () ->
        let sess = mk_session ~name:"sor" () in
        let s = Ped.Advisor.advise sess in
        check_bool "skew suggested" true
          (List.exists (fun (s : Ped.Advisor.suggestion) -> s.Ped.Advisor.action = "skew") s));
    case "advisor: recur suggests distribute" (fun () ->
        let sess = mk_session ~name:"recur" () in
        let s = Ped.Advisor.advise sess in
        check_bool "distribute suggested" true
          (List.exists (fun (s : Ped.Advisor.suggestion) -> s.Ped.Advisor.action = "distribute") s));
    case "advisor: symbolic blockers suggest assertions" (fun () ->
        let sess =
          let w = Option.get (Workloads.by_name "symbounds") in
          Ped.Session.load (Workloads.program w) ~unit_name:"SHIFT"
        in
        let s = Ped.Advisor.advise sess in
        check_bool "assert suggested" true
          (List.exists (fun (s : Ped.Advisor.suggestion) -> s.Ped.Advisor.action = "assert") s));
    case "assertion workflow unlocks symbounds" (fun () ->
        let w = Option.get (Workloads.by_name "symbounds") in
        let sess = Ped.Session.load (Workloads.program w) ~unit_name:"SHIFT" in
        check_int "blocked before" 0 (List.length (Ped.Session.parallelizable_loops sess));
        ignore (Ped.Command.run sess "assert M = 64");
        check_int "parallel after" 1 (List.length (Ped.Session.parallelizable_loops sess)));
    case "assertion workflow unlocks indexarr" (fun () ->
        let w = Option.get (Workloads.by_name "indexarr") in
        let sess = Ped.Session.load (Workloads.program w) ~unit_name:"IDXARR" in
        let before = List.length (Ped.Session.parallelizable_loops sess) in
        ignore (Ped.Command.run sess "assert perm IDX");
        let after = List.length (Ped.Session.parallelizable_loops sess) in
        check_bool "unlocked one more" true (after = before + 1));
    case "focus switches units" (fun () ->
        let w = Option.get (Workloads.by_name "callnest") in
        let sess = Ped.Session.load (Workloads.program w) ~unit_name:"CALLNE" in
        (match Ped.Session.focus sess "ROWOP" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        check_bool "J loop visible" true
          (List.exists
             (fun (l : Loopnest.loop) -> l.Loopnest.header.Ast.dvar = "J")
             (Ped.Session.loops sess)));
    case "parallelize_safe_loops restores focus and is idempotent"
      (fun () ->
        let w = Option.get (Workloads.by_name "callnest") in
        let sess = Ped.Session.load (Workloads.program w) ~unit_name:"ROWOP" in
        check_bool "marked some" true
          (Ped.Session.parallelize_safe_loops sess > 0);
        check_string "focus restored" "ROWOP" (Ped.Session.unit_name sess);
        check_int "nothing left to mark" 0
          (Ped.Session.parallelize_safe_loops sess));
    case "parallelize_safe_loops marks what ped --execute marks" (fun () ->
        (* the "N PARALLEL DO loops" line ped --execute prints for
           each workload *)
        let expected =
          [ ("matmul", 6); ("jacobi", 8); ("sor", 4); ("recur", 2);
            ("daxpy", 4); ("tridiag", 2); ("sumred", 2); ("symbounds", 3);
            ("indexarr", 3); ("callnest", 4); ("arrpriv", 7);
            ("redblack", 4); ("gauss", 6); ("linesweep", 6);
            ("spec77x", 4); ("sympro", 4); ("shallow", 10) ]
        in
        check_int "every workload pinned" (List.length Workloads.all)
          (List.length expected);
        List.iter
          (fun (w : Workloads.t) ->
            let sess =
              Ped.Session.load (Workloads.program w)
                ~unit_name:(Workloads.main_unit w)
            in
            ignore (Ped.Command.script sess w.Workloads.assertion_script);
            let n = Ped.Session.parallelize_safe_loops sess in
            let marked =
              List.fold_left
                (fun acc (u : Ast.program_unit) ->
                  Ast.fold_stmts
                    (fun acc (s : Ast.stmt) ->
                      match s.Ast.node with
                      | Ast.Do (h, _) when h.Ast.parallel -> acc + 1
                      | _ -> acc)
                    acc u.Ast.body)
                0 (Ped.Session.program sess).Ast.punits
            in
            check_int (w.Workloads.name ^ " count")
              (List.assoc w.Workloads.name expected) n;
            check_int (w.Workloads.name ^ " marked") n marked)
          Workloads.all);
    case "full display renders all panes" (fun () ->
        let sess = mk_session ~name:"matmul" () in
        ignore (Ped.Command.run sess (Printf.sprintf "select s%d"
          (loop_sid (loop_by_iv (Ped.Session.env sess) "K"))));
        let d = Ped.Pane.full_display sess in
        check_bool "source" true (contains ~needle:"PROGRAM MATMUL" d);
        check_bool "loops" true (contains ~needle:"loops:" d);
        check_bool "deps" true (contains ~needle:"dependences" d);
        check_bool "vars" true (contains ~needle:"induction" d));
  ]
