open Fortran_front
open Dependence

(* Everything a command can change, and so everything undo and redo
   restore.  Focus, selection, filters and the simulation order are
   navigation and stay outside. *)
type state = {
  program : Ast.program;
  asserts : Depenv.assertions;
  marking : Marking.t;
  user_private : (Ast.stmt_id * string) list;
}

type t = {
  engine : Engine.t;
  history_limit : int;
  mutable state : state;
  mutable undo_stack : (state * string) list;
  mutable redo_stack : (state * string) list;
  mutable unit_name : string;
  mutable analysed :
    (Ast.program * Depenv.assertions * string * Depenv.t * Ddg.t) option;
  mutable selected : Ast.stmt_id option;
  mutable dep_filter : Filter.dep_filter;
  mutable src_filter : Filter.src_filter;
  mutable sim_order : Sim.Interp.order;
  mutable view : View.t option;
  mutable callee_costs :
    (Ast.program * Depenv.assertions * (string -> float option)) option;
  original : Ast.program;
}

(* ---- accessors ---- *)

let program t = t.state.program
let unit_name t = t.unit_name
let marking t = t.state.marking
let assertions t = t.state.asserts
let user_private t = t.state.user_private
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
  if Option.is_none (find_unit program unit_name) then
    invalid_arg ("no such unit: " ^ unit_name);
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
      state =
        { program; asserts = Depenv.no_assertions; marking = Marking.empty;
          user_private = [] };
      undo_stack = [];
      redo_stack = [];
      unit_name;
      analysed = None;
      selected = None;
      dep_filter = Filter.default_dep_filter;
      src_filter = Filter.Src_all;
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
  let marking = marking t and user_private = user_private t in
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

(* ---- mutation: every change is a new state, committed here ---- *)

(* The one place the engine is handed a program and assertions. *)
let install t s =
  t.state <- s;
  Engine.set_program t.engine s.program;
  Engine.set_assertions t.engine s.asserts

(* Drop the oldest entries beyond the history limit — a thousand-edit
   batch script must not grow memory linearly in retained snapshots. *)
let truncate_history limit stack =
  if List.compare_length_with stack limit <= 0 then stack
  else List.filteri (fun i _ -> i < limit) stack

(* Every mutating command commits its whole new state under its label;
   a state equal to the current one records nothing.  A command keeps
   the program it leaves alone, so programs compare physically. *)
let commit t what s =
  let c = t.state in
  if s.program != c.program || { s with program = c.program } <> c then begin
    t.undo_stack <- truncate_history t.history_limit ((c, what) :: t.undo_stack);
    t.redo_stack <- [];
    install t s
  end

(* Undo and redo are one move: the newest state of one stack is
   installed, and the current one goes onto the other, same label. *)
let travel t ~back =
  match if back then t.undo_stack else t.redo_stack with
  | [] -> Error (if back then "nothing to undo" else "nothing to redo")
  | (s, what) :: rest ->
    let saved = (t.state, what) in
    if back then (t.undo_stack <- rest; t.redo_stack <- saved :: t.redo_stack)
    else (t.redo_stack <- rest; t.undo_stack <- saved :: t.undo_stack);
    install t s;
    Ok ()

let undo t = travel t ~back:true
let redo t = travel t ~back:false

let mark_dep t dep_id status =
  match Ddg.find_dep (ddg t) dep_id with
  | None -> Error (Printf.sprintf "no dependence #%d" dep_id)
  | Some d ->
    (* Ped lets the user reject even a proven dependence; the warning
       is the caller's to print *)
    let word =
      match status with
      | Marking.Accepted -> "accept"
      | Rejected -> "reject"
      | s -> Marking.status_to_string s
    in
    commit t (Printf.sprintf "mark %d %s" dep_id word)
      { t.state with marking = Marking.mark (marking t) d status };
    Ok ()

(* [x] joins [l] in place of what [replaces] picks; [l] may hold it *)
let add ?(replaces = Fun.const false) x l =
  if List.mem x l then l else x :: List.filter (fun y -> not (replaces y)) l

(* Edits and rewrites replace a unit of the program. *)
let commit_unit t what (u : Ast.program_unit) =
  let swap (x : Ast.program_unit) =
    if String.equal x.Ast.uname u.Ast.uname then u else x
  in
  let punits = List.map swap (program t).Ast.punits in
  commit t what { t.state with program = { Ast.punits } }

(* ---- argument checks: a command names what the program has ---- *)

let declares kind_ok (u : Ast.program_unit) name =
  match Symbol.lookup (Symbol.build u) name with
  | Some (i : Symbol.info) -> kind_ok i.Symbol.kind
  | None -> false

let scalar = function Symbol.Scalar -> true | _ -> false
let array = function Symbol.Array _ -> true | _ -> false

(* Assertions hold for the whole program: some unit must have [name]. *)
let assume t what kind_ok name label asserts =
  if List.exists (fun u -> declares kind_ok u name) (program t).Ast.punits then
    Ok (commit t label { t.state with asserts })
  else Error (Printf.sprintf "%s is not %s of any unit" name what)

(* ---- user contributions ---- *)

let assert_value t var n =
  let a = assertions t and same (v, _) = String.equal v var in
  assume t "a scalar" scalar var (Printf.sprintf "assert %s = %d" var n)
    { a with asserted_values = add ~replaces:same (var, n) a.asserted_values }

let assert_range t var lo hi =
  let a = assertions t and same (v, _, _) = String.equal v var in
  assume t "a scalar" scalar var (Printf.sprintf "assert %s in %d %d" var lo hi)
    { a with asserted_ranges = add ~replaces:same (var, lo, hi) a.asserted_ranges }

let assert_injective t arr =
  let a = assertions t in
  assume t "an array" array arr ("assert perm " ^ arr)
    { a with asserted_injective = add arr a.asserted_injective }

(* A private declaration names a loop and a scalar of the focus unit. *)
let privatize t sid var =
  let u = focus_unit t in
  match Ast.find_stmt sid u.Ast.body with
  | Some { Ast.node = Ast.Do _; _ } when declares scalar u var ->
    Ok (commit t (Printf.sprintf "private s%d %s" sid var)
          { t.state with user_private = add (sid, var) (user_private t) })
  | Some { Ast.node = Ast.Do _; _ } ->
    Error (Printf.sprintf "%s is not a scalar of %s" var t.unit_name)
  | _ -> Error (Printf.sprintf "s%d is not a loop of %s" sid t.unit_name)

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
      commit_unit t name u;
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
  let marked (lp : Loopnest.loop) =
    let sid = lp.Loopnest.lstmt.Ast.sid in
    is_parallelizable t sid
    && Result.fold ~ok:snd ~error:(Fun.const false)
         (transform t "parallelize" (Transform.Catalog.On_loop sid))
  in
  let count =
    List.fold_left
      (fun n (u : Ast.program_unit) ->
        t.unit_name <- u.Ast.uname;
        n + List.length (List.filter marked (loops t)))
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
        Result.map (fun () -> commit_unit t "edit" u') (Ast.check_labels u'))

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
