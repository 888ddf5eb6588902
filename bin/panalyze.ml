(* Batch analyzer: load a program (file or workload) into an editor
   session, whose engine analyzes every unit with interprocedural
   facts, and print a parallelization report — the non-interactive
   counterpart of the editor, useful in scripts. *)

open Fortran_front

let report sess =
  List.iter
    (fun (u : Ast.program_unit) ->
      Printf.printf "unit %s\n" u.Ast.uname;
      ignore (Ped.Session.focus sess u.Ast.uname);
      let loops = Ped.Session.loops sess in
      if loops = [] then print_endline "  (no loops)"
      else
        List.iter
          (fun (lp : Dependence.Loopnest.loop) ->
            let sid = lp.Dependence.Loopnest.lstmt.Ast.sid in
            let blockers = Ped.Session.blocking sess sid in
            Printf.printf "  %sDO %s (s%d): %s\n"
              (String.make ((lp.Dependence.Loopnest.depth - 1) * 2) ' ')
              lp.Dependence.Loopnest.header.Ast.dvar sid
              (if blockers = [] then "parallelizable"
               else
                 Printf.sprintf "blocked by %d dependence(s) on %s"
                   (List.length blockers)
                   (String.concat ", "
                      (List.sort_uniq String.compare
                         (List.map
                            (fun (d : Dependence.Ddg.dep) -> d.Dependence.Ddg.var)
                            blockers)))))
          loops;
      let s = (Ped.Session.ddg sess).Dependence.Ddg.stats in
      Printf.printf "  pairs tested %d; deps proven %d, pending %d\n"
        s.Dependence.Ddg.pairs_tested s.Dependence.Ddg.proven
        s.Dependence.Ddg.pending)
    (Ped.Session.program sess).Ast.punits

(* Bad input exits 1 with an error that says where it is, as ped's
   does: a syntax or lexical error, a GOTO to a missing label, an
   unreadable file. *)
let load_file path =
  match
    Parser.guard (fun () ->
        Ped.Session.load_source ~file:path
          (In_channel.with_open_bin path In_channel.input_all)
          ~unit_name:None)
  with
  | Ok sess -> sess
  | Error msg | (exception (Invalid_argument msg | Sys_error msg)) ->
    prerr_endline ("error: " ^ msg);
    exit 1

let main file workload =
  let sess =
    match (file, workload) with
    | Some path, _ -> load_file path
    | None, Some wname -> (
      match Workloads.by_name wname with
      | Some w ->
        let program = Workloads.program w in
        Ped.Session.load program ~unit_name:(Ast.entry_unit program).Ast.uname
      | None ->
        prerr_endline
          ("unknown workload (available: " ^ String.concat ", " Workloads.names ^ ")");
        exit 1)
    | None, None ->
      prerr_endline "give a Fortran file or a workload name (-w)";
      exit 1
  in
  report sess

open Cmdliner

let file =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Fortran source file")

let workload =
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME"
         ~doc:"Analyze a built-in workload instead of a file")

let cmd =
  let doc = "batch parallelism analyzer (ParaScope)" in
  Cmd.v (Cmd.info "panalyze" ~doc) Term.(const main $ file $ workload)

let () = exit (Cmd.eval cmd)
