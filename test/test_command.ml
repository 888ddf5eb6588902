(* Command-language coverage: every command path, including the error
   messages a user would see. *)

open Util

let sess () =
  let w = Option.get (Workloads.by_name "matmul") in
  Ped.Session.load (Workloads.program w) ~unit_name:"MATMUL"

let run t line = Ped.Command.run t line

(* daxpy with its first loop parallelized: the simulator then spreads
   a loop over the requested processors *)
let daxpy_parallel () =
  let w = Option.get (Workloads.by_name "daxpy") in
  let t = Ped.Session.load (Workloads.program w) ~unit_name:(Workloads.main_unit w) in
  check_bool "parallelized" true
    (contains ~needle:"parallelize applied" (run t "apply parallelize l1"));
  t

let rejects_processors cmd =
  let t = daxpy_parallel () in
  List.iter
    (fun p ->
      check_string (cmd ^ " " ^ p)
        (Printf.sprintf "error: processor count %s must be at least 1" p)
        (run t (Printf.sprintf "%s %s" cmd p)))
    [ "0"; "-3" ];
  check_bool (cmd ^ " 4 still answers") false
    (contains ~needle:"error" (run t (cmd ^ " 4")))

let suite =
  [
    case "help lists every transformation" (fun () ->
        let t = sess () in
        let h = run t "help" in
        List.iter
          (fun name -> check_bool name true (contains ~needle:name h))
          Transform.Catalog.names);
    case "units marks the focus" (fun () ->
        let t = sess () in
        check_bool "focus arrow" true (contains ~needle:"<- focus" (run t "units")));
    case "unit errors on unknown name" (fun () ->
        let t = sess () in
        check_bool "error" true (contains ~needle:"error" (run t "unit NOWHERE")));
    case "select errors on a non-loop" (fun () ->
        let t = sess () in
        check_bool "error" true (contains ~needle:"error" (run t "select s99999"));
        check_bool "error2" true (contains ~needle:"error" (run t "select bogus")));
    case "src find filters lines" (fun () ->
        let t = sess () in
        let out = run t "src find C(I" in
        check_bool "only matching" true
          (List.for_all
             (fun l -> String.trim l = "" || contains ~needle:"C(I" l)
             (String.split_on_char '\n' out)));
    case "deps filter composition and reset" (fun () ->
        let t = sess () in
        ignore (run t "deps var C carried");
        let shown = List.length (Ped.Session.visible_deps t) in
        ignore (run t "deps reset");
        let after = List.length (Ped.Session.visible_deps t) in
        check_bool "reset shows more" true (after >= shown));
    case "deps rejects unknown filter words" (fun () ->
        let t = sess () in
        check_bool "error" true (contains ~needle:"error" (run t "deps sideways")));
    case "mark errors on unknown id and bad status" (fun () ->
        let t = sess () in
        check_bool "bad id" true (contains ~needle:"error" (run t "mark 99999 reject"));
        check_bool "bad status" true (contains ~needle:"error" (run t "mark 1 sometimes")));
    case "assert usage errors" (fun () ->
        let t = sess () in
        check_bool "bad value" true (contains ~needle:"error" (run t "assert N = lots"));
        check_bool "bad range" true (contains ~needle:"error" (run t "assert N in 9 2")));
    case "preview and apply reject bad arguments" (fun () ->
        let t = sess () in
        check_bool "bad args" true
          (contains ~needle:"error" (run t "preview interchange"));
        check_bool "unknown transform" true
          (contains ~needle:"error" (run t "apply frobnicate l1")));
    case "apply ! forces an unsafe transformation" (fun () ->
        let w = Option.get (Workloads.by_name "tridiag") in
        let t = Ped.Session.load (Workloads.program w) ~unit_name:"TRIDIA" in
        let out = run t "apply parallelize l2" in
        check_bool "refused" true (contains ~needle:"NOT applied" out);
        let out = run t "apply parallelize l2 !" in
        check_bool "forced" true (contains ~needle:"parallelize applied" out));
    case "edit usage and unknown statement" (fun () ->
        let t = sess () in
        check_bool "bad target" true
          (contains ~needle:"error" (run t "edit s99999 X = 1")));
    case "undo on empty stack" (fun () ->
        let t = sess () in
        check_bool "error" true (contains ~needle:"error" (run t "undo")));
    case "history before any change" (fun () ->
        let t = sess () in
        check_bool "no changes" true (contains ~needle:"no changes" (run t "history")));
    case "write to an unwritable path errors" (fun () ->
        let t = sess () in
        check_bool "error" true
          (contains ~needle:"error" (run t "write /nonexistent-dir/x.f")));
    case "simulate reports output lines" (fun () ->
        let t = sess () in
        check_bool "output" true (contains ~needle:"output:" (run t "simulate 4")));
    case "simulate rejects processor counts below 1" (fun () ->
        rejects_processors "simulate");
    case "estimate rejects processor counts below 1" (fun () ->
        rejects_processors "estimate");
    case "script echoes commands" (fun () ->
        let t = sess () in
        match Ped.Command.script t [ "loops"; "stats" ] with
        | [ a; b ] ->
          check_bool "echo1" true (contains ~needle:"ped> loops" a);
          check_bool "echo2" true (contains ~needle:"ped> stats" b)
        | _ -> Alcotest.fail "expected two transcript entries");
    case "why slow runs a whole-program diagnosis" (fun () ->
        let t = sess () in
        let out = run t "why slow" in
        check_bool "no error" false (contains ~needle:"error" out);
        check_bool "summary header" true
          (contains ~needle:"performance diagnosis:" out);
        check_bool "coverage line" true
          (contains ~needle:"parallel coverage" out);
        (* nothing is parallelized yet, so the run is all serial *)
        check_bool "serial fraction fires" true
          (contains ~needle:"serial fraction" out));
    case "why slow focuses one loop" (fun () ->
        let t = sess () in
        ignore (run t "apply parallelize l3");
        let out = run t "why slow l3" in
        check_bool "no error" false (contains ~needle:"error" out);
        check_bool "summary header" true
          (contains ~needle:"performance diagnosis:" out));
    case "why slow usage errors" (fun () ->
        let t = sess () in
        check_bool "bad token" true
          (contains ~needle:"usage: why slow" (run t "why slow bogus"));
        check_bool "too many args" true
          (contains ~needle:"usage: why slow" (run t "why slow l1 l2")));
    case "empty line is a no-op" (fun () ->
        let t = sess () in
        check_string "empty" "" (run t "   "));
  ]

let diff_suite =
  [
    case "diff shows transformed lines only" (fun () ->
        let t = sess () in
        check_string "clean" "no changes" (run t "diff");
        ignore (run t "apply interchange l3");
        ignore (run t "apply parallelize l3");
        let d = run t "diff" in
        check_bool "removal" true (contains ~needle:"- " d);
        check_bool "addition" true (contains ~needle:"+ " d);
        check_bool "parallel line" true (contains ~needle:"PARALLEL DO" d));
  ]

let suite = suite @ diff_suite
