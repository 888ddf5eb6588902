(* Whole-session integration tests: replay editor scripts end to end
   and check both the transcript and the resulting program's behaviour. *)

open Fortran_front
open Util

let session name ~unit_name =
  let w = Option.get (Workloads.by_name name) in
  Ped.Session.load (Workloads.program w) ~unit_name

let transcript sess lines = String.concat "\n" (Ped.Command.script sess lines)

let suite =
  [
    case "matmul session: interchange then parallelize then speedup" (fun () ->
        let sess = session "matmul" ~unit_name:"MATMUL" in
        let t =
          transcript sess
            [
              "loops"; "select l3"; "vars"; "preview interchange l3";
              "apply interchange l3"; "apply parallelize l3"; "history";
              "estimate 8"; "simulate 8";
            ]
        in
        check_bool "interchange applied" true
          (contains ~needle:"interchange applied" t);
        check_bool "parallelize applied" true
          (contains ~needle:"parallelize applied" t);
        check_bool "history lists both" true
          (contains ~needle:"1. interchange" t
          && contains ~needle:"2. parallelize" t);
        check_bool "simulated output correct" true
          (contains ~needle:"1150" t);
        (* the simulated speedup is substantial *)
        let sim = Ped.Command.run sess "simulate 8" in
        let speedup_line =
          List.find (fun l -> contains ~needle:"speedup" l)
            (String.split_on_char '\n' sim)
        in
        let f = Scanf.sscanf speedup_line "speedup: %fx" Fun.id in
        check_bool "speedup > 3" true (f > 3.0));
    case "sor session: wavefront recipe via script" (fun () ->
        let sess = session "sor" ~unit_name:"SOR" in
        let t =
          transcript sess
            [
              "apply parallelize l4"; (* refused: carried deps *)
              "advise";
              "apply skew l4 1"; "apply interchange l4"; "apply parallelize l5";
              "src loops"; "simulate 8";
            ]
        in
        check_bool "first parallelize refused" true
          (contains ~needle:"parallelize NOT applied" t);
        check_bool "advisor suggests skew" true (contains ~needle:"skew" t);
        check_bool "wavefront bounds" true (contains ~needle:"MAX(1, J - N)" t);
        check_bool "output preserved" true (contains ~needle:"3528" t));
    case "undo chain restores the original program" (fun () ->
        let sess = session "daxpy" ~unit_name:"DAXPY" in
        let before = Pretty.program_to_string (Ped.Session.program sess) in
        ignore (Ped.Command.run sess "apply strip l1 4");
        ignore (Ped.Command.run sess "apply parallelize l3");
        ignore (Ped.Command.run sess "undo");
        ignore (Ped.Command.run sess "undo");
        let after = Pretty.program_to_string (Ped.Session.program sess) in
        check_string "identical" before after);
    case "write, reload, behaviour identical" (fun () ->
        let sess = session "jacobi" ~unit_name:"JACOBI" in
        (* transform: parallelize everything safe *)
        ignore (Ped.Session.parallelize_safe_loops sess);
        let path = Filename.temp_file "ped_it" ".f" in
        ignore (Ped.Command.run sess (Printf.sprintf "write %s" path));
        let ic = open_in path in
        let src = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove path;
        let reloaded = Parser.parse_program ~file:"reload.f" src in
        let a = Sim.Interp.run (Ped.Session.program sess) in
        let b = Sim.Interp.run reloaded in
        check_bool "same output" true
          (Sim.Interp.outputs_match a.Sim.Interp.output b.Sim.Interp.output);
        check_bool "parallel annotations kept" true
          (contains ~needle:"PARALLEL DO" src));
    case "mixed session on the mini-app: focus, reductions, calls" (fun () ->
        let sess = session "spec77x" ~unit_name:"SPEC77" in
        let t0 = transcript sess [ "units"; "callgraph"; "loops" ] in
        check_bool "three units" true
          (contains ~needle:"SPEC77" t0 && contains ~needle:"COLUMN" t0);
        (* the diagnostics reduction loop is parallelizable *)
        check_bool "reduction loop parallel" true
          (contains ~needle:"[parallelizable]" t0);
        (* focus COLUMN: its K loop carries a FLUX recurrence *)
        (match Ped.Session.focus sess "COLUMN" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let t1 = transcript sess [ "loops"; "select l1"; "vars" ] in
        check_bool "FLUX unsafe" true (contains ~needle:"FLUX" t1);
        check_bool "blocked" true (contains ~needle:"[blocked]" t1));
    case "editing a workload through the pane ids" (fun () ->
        let sess = session "tridiag" ~unit_name:"TRIDIA" in
        (* make the back-substitution loop body trivially parallel *)
        let blocked =
          List.filter
            (fun (l : Dependence.Loopnest.loop) ->
              not (Ped.Session.is_parallelizable sess (loop_sid l)))
            (Ped.Session.loops sess)
        in
        check_int "two blocked" 2 (List.length blocked);
        let back = List.nth blocked 1 in
        let body =
          Dependence.Loopnest.body_stmts (Ped.Session.env sess).Dependence.Depenv.nest
            (loop_sid back)
        in
        let sid = (List.hd body).Ast.sid in
        (match
           Ped.Session.edit_stmt sess sid "X(I) = D(I) / B(I)"
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let blocked' =
          List.filter
            (fun (l : Dependence.Loopnest.loop) ->
              not (Ped.Session.is_parallelizable sess (loop_sid l)))
            (Ped.Session.loops sess)
        in
        check_int "one blocked after edit" 1 (List.length blocked'));
    case "panalyze-style full-suite sweep stays consistent" (fun () ->
        (* every workload: session counts equal raw analysis counts *)
        List.iter
          (fun (w : Workloads.t) ->
            let sess =
              Ped.Session.load (Workloads.program w)
                ~unit_name:(Workloads.main_unit w)
            in
            let n1 = List.length (Ped.Session.parallelizable_loops sess) in
            Ped.Session.reanalyze sess;
            let n2 = List.length (Ped.Session.parallelizable_loops sess) in
            check_int (w.Workloads.name ^ " stable under reanalysis") n1 n2)
          Workloads.all);
  ]
