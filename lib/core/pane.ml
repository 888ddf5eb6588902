open Fortran_front
open Scalar_analysis
open Dependence

let source_pane (t : Session.t) =
  Telemetry.span (Session.telemetry t) "pane.source" @@ fun () ->
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

(* ---- the dependence pane's row writer ----

   A deps read prints thousands of rows, so each is written straight
   into the pane's buffer: padding from a constant run of spaces,
   integers digit by digit, directions one character at a time.  The
   bytes are those of the format
   ["#%-4d %-7s %-8s s%-4d -> s%-4d %-10s %-6s %s%s"]. *)

let spaces = "          "  (* the widest pad: the 10-column vector *)

let pad buf width used =
  if used < width then Buffer.add_substring buf spaces 0 (width - used)

let add_padded buf width s =
  Buffer.add_string buf s;
  pad buf width (String.length s)

(* digits of [n <= 0], most significant first; working on the negative
   side keeps [min_int] exact *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let add_padded_int buf width n =
  let start = Buffer.length buf in
  add_int buf n;
  pad buf width (Buffer.length buf - start)

let dir_char = function Dtest.Dlt -> '<' | Dtest.Deq -> '=' | Dtest.Dgt -> '>'

let add_dep_row buf ~status (d : Ddg.dep) =
  Buffer.add_char buf '#';
  add_padded_int buf 4 d.Ddg.dep_id;
  Buffer.add_char buf ' ';
  add_padded buf 7 (Ddg.kind_to_string d.Ddg.kind);
  Buffer.add_char buf ' ';
  add_padded buf 8 (if d.Ddg.var = "" then "-" else d.Ddg.var);
  Buffer.add_string buf " s";
  add_padded_int buf 4 d.Ddg.src;
  Buffer.add_string buf " -> s";
  add_padded_int buf 4 d.Ddg.dst;
  Buffer.add_char buf ' ';
  (match d.Ddg.dirs with
  | [] -> add_padded buf 10 "-"
  | dv :: _ ->
    Buffer.add_char buf '(';
    Array.iteri
      (fun k dir ->
        if k > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf (dir_char dir))
      dv;
    Buffer.add_char buf ')';
    let n = Array.length dv in
    pad buf 10 (n + max 0 (n - 1) + 2));
  Buffer.add_char buf ' ';
  (match d.Ddg.level with
  | Some l ->
    Buffer.add_char buf 'L';
    add_padded_int buf 5 l
  | None -> Buffer.add_string buf "indep ");
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Marking.status_to_string status);
  if Array.exists Option.is_some d.Ddg.dist then begin
    Buffer.add_string buf " d=(";
    Array.iteri
      (fun k dist ->
        if k > 0 then Buffer.add_char buf ',';
        match dist with
        | Some n -> add_int buf n
        | None -> Buffer.add_char buf '*')
      d.Ddg.dist;
    Buffer.add_char buf ')'
  end

(* The pane is written into one buffer per domain, kept between reads:
   a fresh buffer the size of a deep unit's pane cost more than writing
   its rows.  One past [kept_bytes] is dropped after the read. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 4096)
let kept_bytes = 1 lsl 20

let dependence_pane (t : Session.t) =
  Telemetry.span (Session.telemetry t) "pane.deps" @@ fun () ->
  let deps = Session.visible_deps t in
  let buf = Domain.DLS.get scratch in
  Buffer.clear buf;
  Buffer.add_string buf
    (Printf.sprintf "dependences (%d shown, filter: %s)\n" (List.length deps)
       (Filter.dep_filter_to_string (Session.dep_filter t)));
  let view = Session.view t in
  List.iter
    (fun d ->
      add_dep_row buf ~status:(View.status view d) d;
      Buffer.add_char buf '\n')
    deps;
  let pane = Buffer.contents buf in
  if Buffer.length buf > kept_bytes then Buffer.reset buf;
  pane

let variable_pane (t : Session.t) =
  Telemetry.span (Session.telemetry t) "pane.vars" @@ fun () ->
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
  Telemetry.span (Session.telemetry t) "pane.loops" @@ fun () ->
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
