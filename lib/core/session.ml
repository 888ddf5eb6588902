open Fortran_front
open Dependence

type t = {
  engine : Engine.t;
  history_limit : int;
  mutable unit_name : string;
  mutable analysed :
    (Ast.program * Depenv.assertions * string * Depenv.t * Ddg.t) option;
  mutable marking : Marking.t;
  mutable user_private : (Ast.stmt_id * string) list;
  mutable selected : Ast.stmt_id option;
  mutable dep_filter : Filter.dep_filter;
  mutable src_filter : Filter.src_filter;
  mutable undo_stack : (Ast.program * string) list;
  mutable redo_stack : (Ast.program * string) list;
  mutable sim_order : Sim.Interp.order;
  mutable view : View.t option;
  mutable callee_costs :
    (Ast.program * Depenv.assertions * (string -> float option)) option;
  original : Ast.program;
}

(* ---- accessors ---- *)

let program t = Engine.program t.engine
let unit_name t = t.unit_name
let marking t = t.marking
let assertions t = Engine.assertions t.engine
let user_private t = t.user_private
let selected t = t.selected
let original t = t.original
let config t = Engine.config t.engine
let interproc t = Engine.summary t.engine
let dep_filter t = t.dep_filter
let set_dep_filter t f = t.dep_filter <- f
let src_filter t = t.src_filter
let set_src_filter t f = t.src_filter <- f
let sim_order t = t.sim_order
let set_sim_order t o = t.sim_order <- o
let history t = List.map snd t.undo_stack
let history_limit t = t.history_limit
let engine_stats t = Engine.stats t.engine
let engine_report t = Engine.report t.engine
let telemetry t = Engine.telemetry t.engine

let find_unit (program : Ast.program) name =
  List.find_opt
    (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
    program.Ast.punits

let focus_unit t =
  match find_unit (program t) t.unit_name with
  | Some u -> u
  | None -> failwith ("unit disappeared: " ^ t.unit_name)

(* The engine decides what actually needs recomputing; the session
   keeps its last answer for the focus unit. *)
let refresh t =
  match Engine.analysis t.engine ~unit_name:t.unit_name with
  | Some (env, ddg) ->
    t.analysed <- Some (program t, assertions t, t.unit_name, env, ddg);
    (env, ddg)
  | None -> failwith ("unit disappeared: " ^ t.unit_name)

let reanalyze t = ignore (refresh t)

(* Mutations only change state; the focus unit is analysed when a
   command first reads it.  The last answer holds while the program,
   the assertions and the unit name are the ones it was asked under. *)
let analysis t =
  match t.analysed with
  | Some (p, a, name, env, ddg)
    when p == program t && a == assertions t && String.equal name t.unit_name
    ->
    (env, ddg)
  | _ -> refresh t

let env t = fst (analysis t)
let ddg t = snd (analysis t)

let load ?(config = Depenv.full_config) ?(interproc = true) ?caching
    ?sharing ?runner ?(history_limit = 1000) ?telemetry
    (program : Ast.program) ~unit_name : t =
  (match find_unit program unit_name with
  | Some _ -> ()
  | None -> invalid_arg ("no such unit: " ^ unit_name));
  if history_limit < 1 then invalid_arg "history_limit must be >= 1";
  Result.iter_error invalid_arg (Ast.check_program_labels program);
  let engine =
    Engine.create ?caching ~config ~interproc ?sharing ?runner ?telemetry
      program
  in
  let t =
    {
      engine;
      history_limit;
      unit_name;
      analysed = None;
      marking = Marking.empty;
      user_private = [];
      selected = None;
      dep_filter = Filter.default_dep_filter;
      src_filter = Filter.Src_all;
      undo_stack = [];
      redo_stack = [];
      sim_order = Sim.Interp.Seq;
      view = None;
      callee_costs = None;
      original = program;
    }
  in
  (* the first analysis is part of loading *)
  reanalyze t;
  t

let load_source ?config ?interproc ?caching ?sharing ?runner ?history_limit
    ?telemetry ~file src ~unit_name : t =
  let program = Parser.parse_program ~file src in
  let unit_name =
    match unit_name with
    | Some n -> n
    | None -> (Ast.entry_unit program).Ast.uname
  in
  load ?config ?interproc ?caching ?sharing ?runner ?history_limit ?telemetry
    program ~unit_name

let focus t name =
  match find_unit (program t) name with
  | Some _ ->
    t.unit_name <- name;
    t.selected <- None;
    Ok ()
  | None -> Error (Printf.sprintf "no unit named %s" name)

let loops t = Loopnest.loops (env t).Depenv.nest

let select t sid =
  match Loopnest.find (env t).Depenv.nest sid with
  | Some _ ->
    t.selected <- Some sid;
    Ok ()
  | None -> Error (Printf.sprintf "s%d is not a loop of %s" sid t.unit_name)

(* One view per (graph, marking, user-private) version: every mutation
   replaces at least one of these inputs, so a view built from all four
   of the current ones is never stale. *)
let view t =
  let env, ddg = analysis t in
  let marking = t.marking and user_private = t.user_private in
  match t.view with
  | Some v when View.built_from v ~env ~ddg ~marking ~user_private -> v
  | _ ->
    let v = View.make ~env ~ddg ~marking ~user_private in
    t.view <- Some v;
    v

let blocking t sid = View.blocking (view t) sid
let is_parallelizable t sid = View.parallelizable (view t) sid

let parallelizable_loops t =
  List.filter
    (fun (lp : Loopnest.loop) -> is_parallelizable t lp.Loopnest.lstmt.Ast.sid)
    (loops t)

let visible_deps t =
  let env, ddg = analysis t in
  let base =
    match t.selected with
    | Some sid -> Ddg.deps_in_loop env ddg sid
    | None -> ddg.Ddg.deps
  in
  Filter.apply_dep_filter t.dep_filter (View.status (view t)) base

let mark_dep t dep_id status =
  match
    List.find_opt (fun (d : Ddg.dep) -> d.Ddg.dep_id = dep_id) (ddg t).Ddg.deps
  with
  | None -> Error (Printf.sprintf "no dependence #%d" dep_id)
  | Some d ->
    (* Ped lets the user reject even a proven dependence; the warning
       is the caller's to print *)
    t.marking <- Marking.mark t.marking d status;
    Ok ()

(* ---- mutation: everything funnels through these two hooks ---- *)

(* Drop the oldest entries beyond the history limit — a thousand-edit
   batch script must not grow memory linearly in retained program
   snapshots. *)
let truncate_history limit stack =
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  if List.compare_length_with stack limit <= 0 then stack else take limit stack

(* Program changes (edit, transformation, undo, redo) go to the
   engine, which invalidates by fingerprint; the session only
   maintains the undo/redo stacks around it. *)
let commit t what new_program =
  t.undo_stack <-
    truncate_history t.history_limit ((program t, what) :: t.undo_stack);
  t.redo_stack <- [];
  Engine.set_program t.engine new_program

let set_asserts t asserts = Engine.set_assertions t.engine asserts

let assert_value t var n =
  let a = assertions t in
  set_asserts t
    {
      a with
      Depenv.asserted_values =
        (var, n) :: List.remove_assoc var a.Depenv.asserted_values;
    }

let assert_range t var lo hi =
  let a = assertions t in
  set_asserts t
    {
      a with
      Depenv.asserted_ranges =
        (var, lo, hi)
        :: List.filter
             (fun (v, _, _) -> not (String.equal v var))
             a.Depenv.asserted_ranges;
    }

let assert_injective t arr =
  let a = assertions t in
  if not (List.mem arr a.Depenv.asserted_injective) then
    set_asserts t
      { a with Depenv.asserted_injective = arr :: a.Depenv.asserted_injective }

let privatize t loop_sid var =
  if not (List.mem (loop_sid, var) t.user_private) then
    t.user_private <- (loop_sid, var) :: t.user_private

let replaced_program t (u : Ast.program_unit) =
  {
    Ast.punits =
      List.map
        (fun (x : Ast.program_unit) ->
          if String.equal x.Ast.uname u.Ast.uname then u else x)
        (program t).Ast.punits;
  }

(* The one diagnosis behind preview, explain, apply and advise:
   parallelize renders the view's verdict, which honours the user's
   rejections and privatizations; the other transformations ask the
   catalog, which analyses their candidates through the engine. *)
let diagnose t name args =
  match Transform.Catalog.find name with
  | None -> Error (Printf.sprintf "unknown transformation %s" name)
  | Some entry ->
    let env, ddg = analysis t in
    Ok
      (match (name, args) with
      | "parallelize", Transform.Catalog.On_loop sid ->
        Transform.Parallelize.diagnose ~verdict:(View.verdict (view t) sid)
          env ddg sid
      | _ ->
        entry.Transform.Catalog.diagnose ~analyze:(Engine.candidate t.engine)
          env ddg args)

let transform ?(force = false) t name args =
  match (diagnose t name args, Transform.Catalog.find name) with
  | Ok diag, Some entry
    when diag.Transform.Diagnosis.applicable
         && (diag.Transform.Diagnosis.safe || force) -> (
    let env, ddg = analysis t in
    (* the environment may hold another session's copy of this unit
       (equal up to source locations): rewrite the session's own *)
    let env = { env with Depenv.punit = focus_unit t } in
    match entry.Transform.Catalog.apply env ddg args with
    | Ok u ->
      commit t name (replaced_program t u);
      Ok (diag, true)
    | Error refusal ->
      (* the apply's own refusal is the more precise diagnosis *)
      Ok (refusal, false))
  | result, _ -> Result.map (fun diag -> (diag, false)) result

(* The editor's workflow, automated: every loop the editor would let
   the user mark PARALLEL DO, marked, unit by unit.  Each transform
   changes the program, so a later loop's check reads analyses that
   see the earlier loops' PARALLEL bits. *)
let parallelize_safe_loops t =
  let home = t.unit_name and selected = t.selected in
  let count =
    List.fold_left
      (fun n (u : Ast.program_unit) ->
        t.unit_name <- u.Ast.uname;
        List.fold_left
          (fun n (lp : Loopnest.loop) ->
            let sid = lp.Loopnest.lstmt.Ast.sid in
            if not (is_parallelizable t sid) then n
            else
              match
                transform t "parallelize" (Transform.Catalog.On_loop sid)
              with
              | Ok (_, true) -> n + 1
              | Ok (_, false) | Error _ -> n)
          n (loops t))
      0 (program t).Ast.punits
  in
  t.unit_name <- home;
  t.selected <- selected;
  count

let edit_stmt t sid text =
  let u = focus_unit t in
  match Ast.find_stmt sid u.Ast.body with
  | None -> Error (Printf.sprintf "no statement s%d" sid)
  | Some _ ->
    Result.bind
      (Parser.guard (fun () -> Parser.parse_stmts_string ~file:"<edit>" text))
      (fun stmts ->
        let u' = Transform.Rewrite.replace_stmt u sid stmts in
        Result.map
          (fun () -> commit t "edit" (replaced_program t u'))
          (Ast.check_labels u'))

let undo t =
  match t.undo_stack with
  | [] -> Error "nothing to undo"
  | (restored, what) :: rest ->
    t.undo_stack <- rest;
    t.redo_stack <- (program t, what) :: t.redo_stack;
    Engine.set_program t.engine restored;
    Ok ()

let redo t =
  match t.redo_stack with
  | [] -> Error "nothing to redo"
  | (restored, what) :: rest ->
    t.redo_stack <- rest;
    t.undo_stack <- (program t, what) :: t.undo_stack;
    Engine.set_program t.engine restored;
    Ok ()

(* A price holds while the program and the assertions are physically
   the ones the engine's environments were built under. *)
let callee_cost t name =
  let p = program t and asserts = assertions t in
  let price =
    match t.callee_costs with
    | Some (q, a, price) when q == p && a == asserts -> price
    | _ ->
      let price =
        Perf.Estimator.callee_costs ~env_of:(fun unit_name ->
            Engine.env t.engine ~unit_name)
      in
      t.callee_costs <- Some (p, asserts, price);
      price
  in
  Telemetry.span (telemetry t) "session.callee_cost" (fun () -> price name)

let simulate ?(processors = 8) t =
  let machine = Perf.Machine.with_processors processors Perf.Machine.default in
  let p = program t in
  match Sim.Interp.run ~machine ~honor_parallel:false p with
  | exception Sim.Interp.Runtime_error e -> Error e
  | seq -> (
    match
      Sim.Interp.run ~machine ~honor_parallel:true ~par_order:t.sim_order p
    with
    | exception Sim.Interp.Runtime_error e -> Error e
    | par ->
      Ok (seq.Sim.Interp.cycles, par.Sim.Interp.cycles, par.Sim.Interp.output))
