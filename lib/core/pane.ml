open Fortran_front
open Scalar_analysis
open Dependence

let source_pane (t : Session.t) =
  match List.find_opt (fun (u : Ast.program_unit) ->
      String.equal u.Ast.uname (Session.unit_name t)) (Session.program t).Ast.punits
  with
  | None -> "<no unit>"
  | Some u ->
    let lines = Pretty.source_lines u in
    let lines = Filter.apply_src_filter (Session.src_filter t) lines in
    let buf = Buffer.create 1024 in
    List.iter
      (fun (sid, text) ->
        let marker =
          match (sid, (Session.selected t)) with
          | Some s, Some sel when s = sel -> ">"
          | _ -> " "
        in
        let tag =
          match sid with Some s -> Printf.sprintf "s%-4d" s | None -> "     "
        in
        Buffer.add_string buf (Printf.sprintf "%s %s %s\n" marker tag text))
      lines;
    Buffer.contents buf

let dep_row view (d : Ddg.dep) =
  let dirs =
    match d.Ddg.dirs with
    | [] -> "-"
    | dv :: _ ->
      Printf.sprintf "(%s)"
        (String.concat ","
           (Array.to_list (Array.map Dtest.direction_to_string dv)))
  in
  let dist =
    if Array.exists Option.is_some d.Ddg.dist then
      Printf.sprintf " d=(%s)"
        (String.concat ","
           (Array.to_list
              (Array.map
                 (function Some n -> string_of_int n | None -> "*")
                 d.Ddg.dist)))
    else ""
  in
  let level =
    match d.Ddg.level with
    | Some l -> Printf.sprintf "L%d" l
    | None -> "indep"
  in
  Printf.sprintf "#%-4d %-7s %-8s s%-4d -> s%-4d %-10s %-6s %s%s" d.Ddg.dep_id
    (Ddg.kind_to_string d.Ddg.kind)
    (if d.Ddg.var = "" then "-" else d.Ddg.var)
    d.Ddg.src d.Ddg.dst dirs level
    (Marking.status_to_string (View.status view d))
    dist

let dependence_pane (t : Session.t) =
  let deps = Session.visible_deps t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "dependences (%d shown, filter: %s)\n" (List.length deps)
       (Filter.dep_filter_to_string (Session.dep_filter t)));
  let view = Session.view t in
  List.iter (fun d -> Buffer.add_string buf (dep_row view d ^ "\n")) deps;
  Buffer.contents buf

let variable_pane (t : Session.t) =
  match (Session.selected t) with
  | None -> "select a loop to see its variables\n"
  | Some sid -> (
    match Depenv.stmt (Session.env t) sid with
    | Some ({ Ast.node = Ast.Do _; _ } as loop) ->
      let classes =
        Varclass.classify
          ~recognize_reductions:
            (Session.config t).Depenv.recognize_reductions
          ~cfg:(Session.env t).Depenv.cfg (Session.env t).Depenv.ctx
          (Session.env t).Depenv.liveness loop
      in
      let buf = Buffer.create 256 in
      Buffer.add_string buf (Printf.sprintf "variables of loop s%d\n" sid);
      List.iter
        (fun (v, c) ->
          let user =
            if List.mem (sid, v) (Session.user_private t) then
              "  [user: private]"
            else ""
          in
          Buffer.add_string buf
            (Printf.sprintf "  %-12s %s%s\n" v
               (Varclass.classification_to_string c)
               user))
        (Varclass.all classes);
      Buffer.contents buf
    | _ -> "selection is not a loop\n")

let loops_pane (t : Session.t) =
  let ranked =
    Perf.Estimator.rank_loops ~callee_cost:(Session.callee_cost t)
      (Session.env t)
  in
  let share_of sid =
    match
      List.find_opt
        (fun ((lp : Loopnest.loop), _, _) -> lp.Loopnest.lstmt.Ast.sid = sid)
        ranked
    with
    | Some (_, _, share) -> share
    | None -> 0.0
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "loops:\n";
  List.iter
    (fun (lp : Loopnest.loop) ->
      let sid = lp.Loopnest.lstmt.Ast.sid in
      let h = lp.Loopnest.header in
      Buffer.add_string buf
        (Printf.sprintf "  s%-4d %s%sDO %s = %s, %s%s   %s  %4.1f%%\n" sid
           (String.make ((lp.Loopnest.depth - 1) * 2) ' ')
           (if h.Ast.parallel then "PARALLEL " else "")
           h.Ast.dvar
           (Pretty.expr_to_string h.Ast.lo)
           (Pretty.expr_to_string h.Ast.hi)
           (match h.Ast.step with
           | Some s -> ", " ^ Pretty.expr_to_string s
           | None -> "")
           (if Session.is_parallelizable t sid then "[parallelizable]"
            else "[blocked]")
           (100.0 *. share_of sid)))
    (Session.loops t);
  Buffer.contents buf

let full_display t =
  String.concat "\n"
    [ source_pane t; loops_pane t; dependence_pane t; variable_pane t ]
