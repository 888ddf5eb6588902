(* Engine cache correctness and hit/miss accounting.

   The load-bearing property: whatever mix of edits, undos, redos,
   refocuses and assertions a session has absorbed, the engine-served
   dependence graph is structurally identical to a from-scratch
   analysis of the session's current program and assertions.  The
   graph (deps + statistics) is pure data, so polymorphic equality is
   the oracle; environments hold closures and are compared only
   through the graphs they produce. *)

open Fortran_front
open Dependence
open Util

let load ?(caching = true) name =
  let w = Option.get (Workloads.by_name name) in
  (w, Ped.Session.load ~caching (Workloads.program w)
        ~unit_name:(Workloads.main_unit w))

let focus_unit_of sess =
  let name = Ped.Session.unit_name sess in
  List.find
    (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
    (Ped.Session.program sess).Ast.punits

(* From-scratch graph of the session's current program + assertions. *)
let scratch_ddg sess =
  let u = focus_unit_of sess in
  let env =
    match Ped.Session.interproc sess with
    | Some _ ->
      let summary = Interproc.Summary.analyze (Ped.Session.program sess) in
      Interproc.Summary.env_for ~config:(Ped.Session.config sess)
        ~asserts:(Ped.Session.assertions sess) summary u
    | None ->
      Depenv.make ~config:(Ped.Session.config sess)
        ~asserts:(Ped.Session.assertions sess) (Unit_syntax.build u)
  in
  Ddg.compute env

let check_scratch what sess =
  check_bool (what ^ ": engine ddg = from-scratch ddg") true
    (Ped.Session.ddg sess = scratch_ddg sess)

let first_assign sess =
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match (acc, s.Ast.node) with
      | None, Ast.Assign _ -> Some s
      | _ -> acc)
    None (focus_unit_of sess).Ast.body

let ok_exn what = function Ok _ -> () | Error e -> failwith (what ^ ": " ^ e)

(* Re-submit a statement's own pretty-printed text: semantically the
   identity edit, but it re-parses to fresh statement ids — the
   canonical "user retyped the line" invalidation. *)
let identity_edit sess =
  match first_assign sess with
  | None -> failwith "workload has no assignment statement"
  | Some s ->
    ok_exn "edit"
      (Ped.Session.edit_stmt sess s.Ast.sid (Pretty.stmt_to_string s))

(* --- correctness across every workload ---------------------------- *)

let burst_case (w : Workloads.t) =
  case (w.Workloads.name ^ ": incremental = from-scratch through a burst")
    (fun () ->
      let _, sess = load w.Workloads.name in
      check_scratch "load" sess;
      List.iter
        (fun cmd -> ignore (Ped.Command.run sess cmd))
        w.Workloads.assertion_script;
      check_scratch "asserts" sess;
      identity_edit sess;
      check_scratch "edit" sess;
      ok_exn "undo" (Ped.Session.undo sess);
      check_scratch "undo" sess;
      ok_exn "redo" (Ped.Session.redo sess);
      check_scratch "redo" sess)

(* --- incremental interprocedural summary --------------------------- *)

(* Each step rewrites one unit of the program the way an edit does:
   the other units stay physically shared, so the engine's next
   summary reuses their per-unit results.  After every step the
   engine's summary must equal a from-scratch [Summary.analyze]. *)

let unit_of (p : Ast.program) name =
  List.find
    (fun (u : Ast.program_unit) -> String.equal u.Ast.uname name)
    p.Ast.punits

let with_unit (p : Ast.program) (u : Ast.program_unit) =
  {
    Ast.punits =
      List.map
        (fun (x : Ast.program_unit) ->
          if String.equal x.Ast.uname u.Ast.uname then u else x)
        p.Ast.punits;
  }

let find_stmt f (u : Ast.program_unit) =
  Ast.fold_stmts
    (fun acc s -> match acc with None when f s -> Some s | _ -> acc)
    None u.Ast.body

let is_assign (s : Ast.stmt) =
  match s.Ast.node with Ast.Assign _ -> true | _ -> false

let is_call (s : Ast.stmt) =
  match s.Ast.node with Ast.Call _ -> true | _ -> false

let replace p u (s : Ast.stmt) repl =
  with_unit p (Transform.Rewrite.replace_stmt u s.Ast.sid repl)

let first_site p =
  List.hd (Interproc.Callgraph.sites (Interproc.Callgraph.build p))

let caller_of_first_site p =
  unit_of p (first_site p).Interproc.Callgraph.caller

let callee_of_first_site p =
  unit_of p (first_site p).Interproc.Callgraph.callee

(* the same text re-entered: fresh statement id, same effects *)
let body_only_in u p =
  let s = Option.get (find_stmt is_assign u) in
  replace p u s [ { s with Ast.sid = Ast.fresh_sid () } ]

let body_only p =
  body_only_in
    (List.find
       (fun (u : Ast.program_unit) ->
         u.Ast.kind <> Ast.Main && find_stmt is_assign u <> None)
       p.Ast.punits)
    p

(* the site's CALL again, after an assignment of its caller *)
let add_call_at (site : Interproc.Callgraph.site) p =
  let u = unit_of p site.Interproc.Callgraph.caller in
  let s = Option.get (find_stmt is_assign u) in
  let call =
    Ast.Call (site.Interproc.Callgraph.callee, site.Interproc.Callgraph.actuals)
  in
  replace p u s [ s; Ast.mk call ]

let add_call p = add_call_at (first_site p) p

let map_call_at (site : Interproc.Callgraph.site) f p =
  let u = unit_of p site.Interproc.Callgraph.caller in
  let s =
    Option.get
      (find_stmt
         (fun s -> s.Ast.sid = site.Interproc.Callgraph.call_sid)
         u)
  in
  replace p u s [ Ast.mk (f s.Ast.node) ]

let map_first_call f p = map_call_at (first_site p) f p

let no_call _ = Ast.Continue

let other_actuals = function
  | Ast.Call (callee, ([ _ ] | [])) -> Ast.Call (callee, [ Ast.Int 1 ])
  | Ast.Call (callee, actuals) -> Ast.Call (callee, List.rev actuals)
  | node -> node

let remove_call = map_first_call no_call
let change_actual = map_first_call other_actuals

(* take [u]'s first COMMON variable out of COMMON; with none, put its
   first assigned local scalar (or DO index) in; [None] when it has
   neither *)
let toggled_common (u : Ast.program_unit) =
  let formals =
    match u.Ast.kind with
    | Ast.Subroutine fs | Ast.Function (_, fs) -> fs
    | Ast.Main -> []
  in
  let local (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Assign (Ast.Var v, _) when not (List.mem v formals) -> Some v
    | Ast.Do (h, _) when not (List.mem h.Ast.dvar formals) -> Some h.Ast.dvar
    | _ -> None
  in
  let set_common name block =
    List.map
      (fun (d : Ast.decl) ->
        if String.equal d.Ast.dname name then { d with Ast.common_block = block }
        else d)
      u.Ast.decls
  in
  match
    List.find_opt (fun (d : Ast.decl) -> d.Ast.common_block <> None) u.Ast.decls
  with
  | Some d -> Some { u with Ast.decls = set_common d.Ast.dname None }
  | None -> (
    match Option.bind (find_stmt (fun s -> local s <> None) u) local with
    | None -> None
    | Some v
      when List.exists (fun (d : Ast.decl) -> String.equal d.Ast.dname v) u.Ast.decls
      ->
      Some { u with Ast.decls = set_common v (Some "ZZ") }
    | Some v ->
      let dtyp = if v.[0] >= 'I' && v.[0] <= 'N' then Ast.Tinteger else Ast.Treal in
      Some
        { u with
          Ast.decls =
            u.Ast.decls
            @ [ { Ast.dname = v; dtyp; dims = []; init = None; data_init = None;
                  common_block = Some "ZZ" } ] })

(* the first site's callee's COMMON toggled *)
let toggle_common p =
  let u = callee_of_first_site p in
  match toggled_common u with
  | Some u -> with_unit p u
  | None -> Alcotest.fail ("no local scalar assignment in " ^ u.Ast.uname)

(* [None] for a unit that is not a subroutine *)
let reversed_formals (u : Ast.program_unit) =
  match u.Ast.kind with
  | Ast.Subroutine fs ->
    Some { u with Ast.kind = Ast.Subroutine (List.rev fs @ [ "XTRA" ]) }
  | _ -> None

let reverse_formals p =
  let u = callee_of_first_site p in
  match reversed_formals u with
  | Some u -> with_unit p u
  | None -> Alcotest.fail (u.Ast.uname ^ " is not a subroutine")

let check_summary what eng =
  check_bool (what ^ ": engine summary = from-scratch summary") true
    (Interproc.Summary.equal
       (Option.get (Engine.summary eng))
       (Interproc.Summary.analyze (Engine.program eng)))

(* edits, then undo/redo by restoring earlier program values, then an
   edit on top of the restored program *)
let summary_script what (p0 : Ast.program) =
  let eng = Engine.create p0 in
  check_summary (what ^ " load") eng;
  let set name p =
    Engine.set_program eng p;
    check_summary (what ^ " " ^ name) eng
  in
  let step name f = set name (f (Engine.program eng)) in
  step "body-only edit" body_only;
  step "add a CALL" add_call;
  step "change an actual" change_actual;
  step "remove a CALL" remove_call;
  let before_common = Engine.program eng in
  step "change a COMMON declaration" toggle_common;
  let before_formals = Engine.program eng in
  step "change a formal list" reverse_formals;
  let newest = Engine.program eng in
  set "undo" before_formals;
  set "undo again" before_common;
  set "redo" before_formals;
  step "edit after undo" body_only;
  set "back to the newest" newest;
  step "COMMON back" toggle_common

let recursive_src =
  "      PROGRAM P\n      REAL A(10)\n      K = 3\n      CALL R(A, K)\n\
  \      PRINT *, A(1)\n      END\n\
  \      SUBROUTINE R(B, N)\n      REAL B(10)\n      T = 1.0\n      B(N) = T\n\
  \      IF (N .GT. 1) CALL R(B, N - 1)\n      END\n"

(* A leaf's kills and sections reach its caller through a wrapper. *)
let wrapper_src leaf_body =
  "      PROGRAM P\n      COMMON /G/ Q\n      REAL A(10)\n      CALL W(A, X)\n\
  \      PRINT *, X, Q, A(1)\n      END\n\
  \      SUBROUTINE W(B, Y)\n      COMMON /G/ Q\n      REAL B(10)\n\
  \      CALL S(B, Y)\n      END\n\
  \      SUBROUTINE S(C, Z)\n      COMMON /G/ Q\n      REAL C(10)\n"
  ^ leaf_body ^ "      END\n"

let leaf_edits_reach_the_wrapper () =
  let p0 = parse (wrapper_src "      Z = 1.0\n      Q = 2.0\n      C(1) = Z\n") in
  let eng = Engine.create p0 in
  check_summary "wrapper load" eng;
  List.iter
    (fun (what, body) ->
      let leaf = unit_of (parse (wrapper_src body)) "S" in
      Engine.set_program eng (with_unit (Engine.program eng) leaf);
      check_summary what eng;
      check_bool (what ^ ": the wrapper is re-solved") true
        (List.mem "W"
           (Interproc.Summary.recomputed (Option.get (Engine.summary eng)))))
    [
      ( "a kill becomes conditional",
        "      IF (Q .GT. 0.0) Z = 1.0\n      Q = 2.0\n      C(1) = Z\n" );
      ( "a written section moves",
        "      IF (Q .GT. 0.0) Z = 1.0\n      Q = 2.0\n      C(2) = Z\n" );
      ("the kill returns", "      Z = 1.0\n      Q = 2.0\n      C(2) = Z\n");
    ]

let summary_cases =
  List.map
    (fun name ->
      case ("summary: incremental = from-scratch through edits on " ^ name)
        (fun () ->
          let p =
            match Workloads.stress name with
            | Ok p -> p
            | Error _ -> Workloads.program (Option.get (Workloads.by_name name))
          in
          summary_script name p))
    [ "stress:many-units@smoke"; "callnest"; "symbounds"; "spec77x"; "sympro";
      "shallow" ]
  @ [
      case "summary: incremental = from-scratch on a self-recursive unit"
        (fun () ->
          let p = parse recursive_src in
          check_bool "R calls itself" true
            (List.mem "R"
               (Interproc.Callgraph.callees_of (Interproc.Callgraph.build p) "R"));
          summary_script "recursive" p);
      case "summary: a leaf's kills and sections reach its caller"
        leaf_edits_reach_the_wrapper;
      case "summary: equal tells summaries apart" (fun () ->
          let p = Workloads.program (Option.get (Workloads.by_name "callnest")) in
          let s = Interproc.Summary.analyze p in
          check_bool "reflexive" true
            (Interproc.Summary.equal s (Interproc.Summary.analyze p));
          check_bool "a removed CALL differs" false
            (Interproc.Summary.equal s (Interproc.Summary.analyze (remove_call p))));
      case "summary: a body-only edit recomputes exactly one unit" (fun () ->
          let p = Result.get_ok (Workloads.stress "stress:many-units@smoke") in
          let sess = Ped.Session.load p ~unit_name:"STRESS" in
          let recomputed () =
            Telemetry.value
              (Telemetry.counter (Ped.Session.telemetry sess)
                 "engine.summary_units_recomputed")
          in
          check_int "the first build solves every unit"
            (List.length p.Ast.punits) (recomputed ());
          ok_exn "focus" (Ped.Session.focus sess "S0000");
          let before = recomputed () in
          identity_edit sess;
          Ped.Session.reanalyze sess;
          check_int "one unit re-solved" 1 (recomputed () - before);
          check_scratch "after the edit" sess);
    ]

(* --- propagation: what an edit re-solves -------------------------- *)

(* One of [summary_script]'s edits at a seeded site or unit; [None]
   when it does not apply there (a caller without an assignment, an
   external callee, a callee with nothing to put in COMMON, a FUNCTION
   whose formals would be reversed). *)
let random_edit rng p =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let sites = Interproc.Callgraph.sites (Interproc.Callgraph.build p) in
  let callee (site : Interproc.Callgraph.site) =
    List.find_opt
      (fun (u : Ast.program_unit) ->
        String.equal u.Ast.uname site.Interproc.Callgraph.callee)
      p.Ast.punits
  in
  let in_callee site name f =
    Option.bind (callee site) (fun u ->
        Option.map (fun u -> (name, with_unit p u)) (f u))
  in
  match Random.State.int rng 6 with
  | 0 -> (
    match
      List.filter
        (fun (u : Ast.program_unit) ->
          u.Ast.kind <> Ast.Main && find_stmt is_assign u <> None)
        p.Ast.punits
    with
    | [] -> None
    | units -> Some ("body-only edit", body_only_in (pick units) p))
  | _ when sites = [] -> None
  | k -> (
    let site = pick sites in
    match k with
    | 1 -> (
      match add_call_at site p with
      | q -> Some ("add a CALL", q)
      | exception Invalid_argument _ -> None)
    | 2 -> Some ("change an actual", map_call_at site other_actuals p)
    | 3 -> Some ("remove a CALL", map_call_at site no_call p)
    | 4 -> in_callee site "change a COMMON declaration" toggled_common
    | _ -> in_callee site "change a formal list" reversed_formals)

(* [steps] seeded edits, undos and redos; after each the engine's
   summary must equal a from-scratch one *)
let random_script ~seed ~steps what p0 =
  let rng = Random.State.make [| seed |] in
  let eng = Engine.create p0 in
  let past = ref [] and future = ref [] and taken = ref 0 in
  let set name p =
    Engine.set_program eng p;
    incr taken;
    check_summary (Printf.sprintf "%s step %d (%s)" what !taken name) eng
  in
  while !taken < steps do
    let p = Engine.program eng in
    match (Random.State.int rng 4, !past, !future) with
    | 0, q :: rest, _ ->
      past := rest;
      future := p :: !future;
      set "undo" q
    | 1, _, q :: rest ->
      future := rest;
      past := p :: !past;
      set "redo" q
    | _ -> (
      match random_edit rng p with
      | Some (name, q) ->
        past := p :: !past;
        future := [];
        set name q
      | None -> ())
  done

(* [name], its transitive callers and its transitive callees *)
let reach cg name =
  let rec close next seen = function
    | [] -> seen
    | n :: rest when List.mem n seen -> close next seen rest
    | n :: rest -> close next (n :: seen) (next n @ rest)
  in
  close (Interproc.Callgraph.callers_of cg) [] [ name ]
  @ close (Interproc.Callgraph.callees_of cg) [] [ name ]

let solved_per_pass s =
  Interproc.
    [
      Modref.solved (Summary.modref s);
      Ipkill.solved (Summary.kills s);
      Sections.solved (Summary.sections s);
      Ipconst.solved (Summary.ipconst s);
      Aliases.solved (Summary.aliases s);
    ]

let edits_reach_only_their_units () =
  let p = Result.get_ok (Workloads.stress "stress:many-units@smoke") in
  let sess = Ped.Session.load p ~unit_name:"STRESS" in
  let solved () =
    Telemetry.value
      (Telemetry.counter (Ped.Session.telemetry sess) "interproc.units_solved")
  in
  check_int "the first build solves every unit in each of the five passes"
    (5 * List.length p.Ast.punits) (solved ());
  let edited =
    List.filteri
      (fun i (u : Ast.program_unit) -> u.Ast.kind <> Ast.Main && i mod 6 = 1)
      p.Ast.punits
  in
  List.iter
    (fun (u : Ast.program_unit) ->
      let name = u.Ast.uname in
      ok_exn "focus" (Ped.Session.focus sess name);
      let before = solved () in
      identity_edit sess;
      let s = Option.get (Ped.Session.interproc sess) in
      let passes = solved_per_pass s in
      check_int (name ^ ": the counter sums the passes")
        (List.fold_left (fun n l -> n + List.length l) 0 passes)
        (solved () - before);
      check_bool (name ^ ": every pass solves the edited unit") true
        (List.for_all (List.mem name) passes);
      let reached = reach (Interproc.Summary.callgraph s) name in
      List.iter
        (List.iter (fun n ->
             check_bool (name ^ ": " ^ n ^ " is a caller or a callee") true
               (List.mem n reached)))
        passes)
    edited

(* R passes its formals' alias on to itself: once the main program
   stops passing A twice, a walk that started R from its old pairs
   would keep them *)
let recursive_alias_src actuals =
  "      PROGRAM P\n      REAL A(10), D(10)\n      CALL R(" ^ actuals
  ^ ", 3)\n      END\n\
  \      SUBROUTINE R(B, C, N)\n      REAL B(10), C(10)\n      B(N) = C(N)\n\
  \      IF (N .GT. 1) CALL R(B, C, N - 1)\n      END\n"

let recursive_alias_cleared () =
  let r_pairs eng =
    Interproc.Aliases.pairs_of
      (Interproc.Summary.aliases (Option.get (Engine.summary eng)))
      "R"
  in
  let eng = Engine.create (parse (recursive_alias_src "A, A")) in
  check_summary "A passed twice" eng;
  check_bool "B and C alias" true (r_pairs eng <> []);
  let main = unit_of (parse (recursive_alias_src "A, D")) "P" in
  Engine.set_program eng (with_unit (Engine.program eng) main);
  check_summary "A and D passed" eng;
  check_bool "the alias is gone" true (r_pairs eng = [])

(* Steps that add and remove call edges and units: each changes which
   units the passes must re-solve and the order they walk them in. *)
let reorder_units_src ~a ~b ~extra =
  "      PROGRAM P\n      COMMON /G/ Q\n      CALL B(X)\n      PRINT *, X, Q\n\
  \      END\n      SUBROUTINE A(Y, N)\n      COMMON /G/ Q\n" ^ a
  ^ "      END\n      SUBROUTINE B(Z)\n      COMMON /G/ Q\n" ^ b ^ "      END\n"
  ^ extra

let walk_order_follows_edits () =
  let plain = "      Z = 2.0\n" and writes_q = "      Q = Y\n" in
  let eng =
    Engine.create (parse (reorder_units_src ~a:"      Y = 1.0\n" ~b:plain ~extra:""))
  in
  check_summary "load" eng;
  (* the units named in [take] come from the new source; the others
     stay the values the engine holds, and units it lacks are gone *)
  let step what ~take ~a ~b ~extra =
    let current = Engine.program eng in
    let punits =
      List.map
        (fun (u : Ast.program_unit) ->
          if List.mem u.Ast.uname take then u else unit_of current u.Ast.uname)
        (parse (reorder_units_src ~a ~b ~extra)).Ast.punits
    in
    Engine.set_program eng { Ast.punits };
    check_summary what eng
  in
  let c = "      SUBROUTINE C(W)\n      COMMON /G/ Q\n      Q = W\n      END\n" in
  step "B calls A, which now writes Q" ~take:[ "A"; "B" ] ~a:writes_q
    ~b:("      CALL A(Z, 4)\n" ^ plain) ~extra:"";
  step "B drops the call" ~take:[ "B" ] ~a:writes_q ~b:plain ~extra:"";
  step "B calls A again, with another constant" ~take:[ "B" ] ~a:writes_q
    ~b:("      CALL A(Z, 5)\n" ^ plain) ~extra:"";
  step "A calls a new unit C" ~take:[ "A"; "C" ] ~a:"      CALL C(Y)\n"
    ~b:("      CALL A(Z, 5)\n" ^ plain) ~extra:c;
  step "C is gone" ~take:[] ~a:"      CALL C(Y)\n"
    ~b:("      CALL A(Z, 5)\n" ^ plain) ~extra:""

let propagation_cases =
  [
    case "summary: a body-only edit solves only the units it reaches"
      edits_reach_only_their_units;
    case "summary: a recursive unit re-solved from nothing drops a stale alias"
      recursive_alias_cleared;
    case "summary: the walk order follows added units and call edges"
      walk_order_follows_edits;
  ]
  @ List.map
      (fun (name, p) ->
        case ("summary: incremental = from-scratch over a seeded script on " ^ name)
          (fun () -> random_script ~seed:30 ~steps:80 name (Lazy.force p)))
      [
        ( "stress:many-units@smoke",
          lazy (Result.get_ok (Workloads.stress "stress:many-units@smoke")) );
        ("callnest", lazy (Workloads.program (Option.get (Workloads.by_name "callnest"))));
        ("a self-recursive unit", lazy (parse recursive_src));
      ]

(* --- hit/miss accounting ------------------------------------------ *)

let delta (a : Engine.stats) (b : Engine.stats) f = f b - f a

(* --- candidate analyses ------------------------------------------- *)

let smoke_deep () =
  Oracle.Stress.generate (Oracle.Stress.smoke Oracle.Stress.deep)

let unit_names (p : Ast.program) =
  List.map (fun (u : Ast.program_unit) -> u.Ast.uname) p.Ast.punits

(* Every skew, tile and fuse diagnosis of every unit, as printed. *)
let candidate_diagnoses sess =
  List.concat_map
    (fun name ->
      ok_exn "focus" (Ped.Session.focus sess name);
      Transform.Catalog.sites (Ped.Session.env sess)
      |> List.filter (fun (t, _) -> List.mem t [ "skew"; "tile"; "fuse" ])
      |> List.map (fun (t, args) ->
             match Ped.Session.diagnose sess t args with
             | Ok d -> t ^ ": " ^ Transform.Diagnosis.to_string d
             | Error e -> e))
    (unit_names (Ped.Session.program sess))

(* A warm session (every unit analysed, buckets shared with the
   candidates) prints the diagnoses a from-scratch session prints. *)
let warm_candidates_match_scratch (name, program) =
  let load caching =
    Ped.Session.load ~caching program
      ~unit_name:(Ast.entry_unit program).Ast.uname
  in
  let warm = load true in
  List.iter
    (fun u ->
      ok_exn "focus" (Ped.Session.focus warm u);
      Ped.Session.reanalyze warm)
    (unit_names program);
  let scratch = candidate_diagnoses (load false) in
  check_bool (name ^ " has candidates") true (scratch <> []);
  Alcotest.(check (list string)) name scratch (candidate_diagnoses warm)

(* Advise analyses candidates without touching the unit's cached
   analysis: a refresh afterwards is a hit on the very same graph.
   A loops read first builds the callees' environments, which advise
   prices the loops with, so no environment is left to build. *)
let candidates_leave_the_unit_alone () =
  let tel = Telemetry.make ~record_spans:true () in
  let program = smoke_deep () in
  let sess = Ped.Session.load ~telemetry:tel program ~unit_name:"STRESS" in
  List.iter
    (fun name ->
      ok_exn "focus" (Ped.Session.focus sess name);
      ignore (Ped.Pane.loops_pane sess);
      let ddg = Ped.Session.ddg sess and s0 = Ped.Session.engine_stats sess in
      ignore (Ped.Command.run sess "advise");
      Ped.Session.reanalyze sess;
      let s1 = Ped.Session.engine_stats sess in
      check_bool (name ^ ": same graph") true (Ped.Session.ddg sess == ddg);
      check_int (name ^ ": no env miss") 0
        (delta s0 s1 (fun s -> s.Engine.env_misses));
      check_int (name ^ ": no invalidation") 0
        (delta s0 s1 (fun s -> s.Engine.invalidations)))
    (unit_names program);
  check_bool "advise analysed candidates" true
    (List.exists
       (fun (r : Telemetry.span_record) -> r.Telemetry.sp_name = "engine.candidate")
       (Telemetry.spans tel))

(* Candidates share the engine's bucket cache.  One advise per unit of
   smoke:deep ran 3,559 pair tests when each candidate graph was built
   uncached, and runs 545 through the engine. *)
let advise_tests_bounded () =
  let tel = Telemetry.make () in
  let prev = Telemetry.default () in
  Fun.protect ~finally:(fun () -> Telemetry.set_default prev) @@ fun () ->
  Telemetry.set_default tel;
  let program = smoke_deep () in
  let sess = Ped.Session.load ~telemetry:tel program ~unit_name:"STRESS" in
  let tests = Telemetry.counter tel "ddg.tests_executed" in
  let n =
    List.fold_left
      (fun n name ->
        ok_exn "focus" (Ped.Session.focus sess name);
        Ped.Session.reanalyze sess;
        let before = Telemetry.value tests in
        ignore (Ped.Command.run sess "advise");
        n + Telemetry.value tests - before)
      0 (unit_names program)
  in
  check_bool (Printf.sprintf "%d pair tests (bound 1000)" n) true (n <= 1000)

let candidate_cases =
  List.map
    (fun (w : Workloads.t) ->
      case ("candidates on " ^ w.Workloads.name ^ ": warm = scratch")
        (fun () ->
          warm_candidates_match_scratch
            (w.Workloads.name, Ast.renumber_program (Workloads.program w))))
    Workloads.all
  @ List.map
      (fun (p : Oracle.Stress.profile) ->
        let name = "smoke:" ^ p.Oracle.Stress.sp_name in
        case ("candidates on " ^ name ^ ": warm = scratch") (fun () ->
            warm_candidates_match_scratch
              (name, Oracle.Stress.generate (Oracle.Stress.smoke p))))
      Oracle.Stress.all
  @ [
      case "candidates: advise leaves the unit's analysis alone"
        candidates_leave_the_unit_alone;
      case "candidates: advise on smoke:deep shares the bucket cache"
        advise_tests_bounded;
    ]

(* --- the lazy session ------------------------------------------------ *)

(* Mutations only change state: nothing is analysed until a command
   reads the focus unit, and then it is analysed once.  A changed
   assertion or focus is read afresh, never from the last answer. *)
let mutations_build_nothing () =
  let _, sess = load "callnest" in
  let built s0 s1 what =
    check_int (what ^ ": environments") 1
      (delta s0 s1 (fun s -> s.Engine.env_misses))
  in
  let s0 = Ped.Session.engine_stats sess in
  ok_exn "focus" (Ped.Session.focus sess "ROWOP");
  identity_edit sess;
  ok_exn "undo" (Ped.Session.undo sess);
  ok_exn "redo" (Ped.Session.redo sess);
  Ped.Session.assert_value sess "N" 8;
  let s1 = Ped.Session.engine_stats sess in
  List.iter
    (fun (what, f) -> check_int ("mutations: " ^ what) 0 (delta s0 s1 f))
    [
      ("environments", fun s -> s.Engine.env_misses);
      ("summaries", fun s -> s.Engine.summary_builds);
      ("pair tests", fun s -> s.Engine.tests_run);
    ];
  ignore (Ped.Session.ddg sess);
  let s2 = Ped.Session.engine_stats sess in
  built s1 s2 "first read";
  check_int "first read: summaries" 1
    (delta s1 s2 (fun s -> s.Engine.summary_builds));
  ignore (Ped.Pane.dependence_pane sess);
  ignore (Ped.Session.env sess);
  let s3 = Ped.Session.engine_stats sess in
  check_int "later reads: environments" 0
    (delta s2 s3 (fun s -> s.Engine.env_misses));
  check_int "later reads: pair tests" 0
    (delta s2 s3 (fun s -> s.Engine.tests_run));
  Ped.Session.assert_value sess "N" 9;
  ignore (Ped.Session.ddg sess);
  let s4 = Ped.Session.engine_stats sess in
  built s3 s4 "read after an assertion";
  ok_exn "focus" (Ped.Session.focus sess "CALLNE");
  ignore (Ped.Session.ddg sess);
  built s4 (Ped.Session.engine_stats sess) "read after a focus";
  check_scratch "lazy" sess

(* A seeded editor command drawn from the session's program alone, so
   drawing it reads no analysis. *)
let random_command rng sess =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let stmts =
    Ast.fold_stmts (fun acc s -> s :: acc) [] (focus_unit_of sess).Ast.body
  in
  let loops =
    List.filter_map
      (fun (s : Ast.stmt) ->
        match s.Ast.node with Ast.Do _ -> Some s.Ast.sid | _ -> None)
      stmts
  and assigns =
    List.filter_map
      (fun (s : Ast.stmt) ->
        match s.Ast.node with Ast.Assign (lhs, _) -> Some (s, lhs) | _ -> None)
      stmts
  and scalars =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (s : Ast.stmt) ->
           List.concat_map
             (Ast.fold_expr
                (fun acc e -> match e with Ast.Var v -> v :: acc | _ -> acc)
                [])
             (Ast.stmt_exprs s.Ast.node))
         stmts)
  in
  let units = unit_names (Ped.Session.program sess) in
  let draw = function
    | 0 -> Some ("unit " ^ pick units)
    | 1 when assigns <> [] ->
      let s, lhs = pick assigns in
      Some
        (if Random.State.bool rng then
           Printf.sprintf "edit s%d %s" s.Ast.sid
             (String.trim (Pretty.stmt_to_string s))
         else
           Printf.sprintf "edit s%d %s = %d" s.Ast.sid
             (Pretty.expr_to_string lhs) (Random.State.int rng 9))
    | 2 -> Some "undo"
    | 3 -> Some "redo"
    | 4 when scalars <> [] ->
      Some
        (Printf.sprintf "assert %s = %d" (pick scalars)
           (1 + Random.State.int rng 64))
    | 5 when loops <> [] && scalars <> [] ->
      Some (Printf.sprintf "private s%d %s" (pick loops) (pick scalars))
    | 6 ->
      Some
        (Printf.sprintf "mark %d %s"
           (1 + Random.State.int rng 8)
           (pick [ "reject"; "accept"; "pending" ]))
    | 7 when loops <> [] -> Some (Printf.sprintf "select s%d" (pick loops))
    | 8 when loops <> [] ->
      Some (Printf.sprintf "apply parallelize s%d" (pick loops))
    | _ -> None
  in
  let rec go () =
    match draw (Random.State.int rng 9) with Some c -> c | None -> go ()
  in
  go ()

(* A lazy session prints what a session analysed after every command
   prints: each command's output and then every pane.  The twin replays
   the lazy session's commands from the same statement-id supply, so
   its edits and rewrites number their statements alike. *)
let lazy_matches_eager (name, program) =
  let rng = Random.State.make [| 31; Hashtbl.hash name |] in
  let load () =
    Ped.Session.load program ~unit_name:(Ast.entry_unit program).Ast.uname
  in
  let first = Ast.fresh_sid () in
  let lazy_sess = load () in
  let transcript =
    List.init 24 (fun _ ->
        let cmd = random_command rng lazy_sess in
        let out = Ped.Command.run lazy_sess cmd in
        (cmd, out, Ped.Command.run lazy_sess "display"))
  in
  let last = Ast.fresh_sid () in
  Ast.reset_sids ();
  Ast.ensure_sids_above first;
  let eager = load () in
  List.iteri
    (fun i (cmd, out, display) ->
      let what = Printf.sprintf "%s, step %d (%s)" name i cmd in
      Alcotest.(check string) what out (Ped.Command.run eager cmd);
      Ped.Session.reanalyze eager;
      Alcotest.(check string) (what ^ ": panes") display
        (Ped.Command.run eager "display"))
    transcript;
  Ast.ensure_sids_above last

let lazy_cases =
  case "lazy: mutations build nothing until a read" mutations_build_nothing
  :: List.map
       (fun (w : Workloads.t) ->
         case ("lazy = eager on " ^ w.Workloads.name) (fun () ->
             lazy_matches_eager
               (w.Workloads.name, Ast.renumber_program (Workloads.program w))))
       Workloads.all
  @ List.map
      (fun (p : Oracle.Stress.profile) ->
        let name = "smoke:" ^ p.Oracle.Stress.sp_name in
        case ("lazy = eager on " ^ name) (fun () ->
            lazy_matches_eager
              (name, Oracle.Stress.generate (Oracle.Stress.smoke p))))
      Oracle.Stress.all

(* --- bucket keys: what the pair tests read ------------------------ *)

(* A dependence bucket is replayed only when every fact its pair tests
   read is unchanged.  These programs put those facts one edit away:
   substitution chains up to three deep, a loop-bound scalar, an
   auxiliary induction's stride, a CALL's actuals, two identical
   top-level statements (a self-bucket and a cross-bucket of equal
   content), and right-hand sides no test reads. *)

let parse_unit_src src =
  Ast.renumber_program (Parser.parse_program ~file:"keys.f" src)

let session_of_src ?sharing src =
  let p = parse_unit_src src in
  Ped.Session.load ?sharing p ~unit_name:(List.hd p.Ast.punits).Ast.uname

(* the statement at a preorder position of the focus unit: an edit
   replaces one statement by one, so positions outlive ids *)
let stmt_at sess pos =
  List.nth
    (List.rev
       (Ast.fold_stmts (fun acc s -> s :: acc) [] (focus_unit_of sess).Ast.body))
    pos

let pos_of_text src_stmts text =
  let rec go i = function
    | [] -> failwith ("no statement " ^ text)
    | (s : Ast.stmt) :: rest ->
      if String.equal (String.trim (Pretty.stmt_to_string s)) text then i
      else go (i + 1) rest
  in
  go 0 src_stmts

let edit_at sess pos text =
  ok_exn ("edit " ^ text) (Ped.Session.edit_stmt sess (stmt_at sess pos).Ast.sid text)

let chain_src =
  {|      SUBROUTINE CHAIN(A, K)
      INTEGER K, M, L, N, J, I
      REAL A(100)
      M = K
      L = K
      N = M
      J = L
      DO 10 I = 1, 10
        A(I + N) = A(I + J) + 1
   10 CONTINUE
      END
|}

let chain_loop_blocked sess =
  match Ped.Session.loops sess with
  | [ lp ] -> not (Ped.Session.is_parallelizable sess lp.Loopnest.lstmt.Ast.sid)
  | _ -> failwith "one loop expected"

let second_level_edit () =
  let sess = session_of_src chain_src in
  check_bool "parallelizable as loaded" false (chain_loop_blocked sess);
  edit_at sess 0 "M = K + 1";
  check_scratch "M = K + 1" sess;
  check_bool "blocked after M = K + 1" true (chain_loop_blocked sess);
  edit_at sess 1 "L = K + 1";
  check_scratch "L = K + 1" sess;
  check_bool "parallelizable again after L = K + 1" false (chain_loop_blocked sess)

(* Redefining M between N = M and the loop makes N = M immovable, so N
   stays a symbol in the subscript: the tests read a different form
   although no definition reaching the loop changed.  The redefinition
   goes in by editing a bystander statement into two. *)
let bystander_src =
  {|      SUBROUTINE CHAIN(A, B, K)
      INTEGER K, M, L, N, J, I
      REAL A(100), B(10)
      M = K
      L = K
      N = M
      J = L
      B(1) = 0.0
      DO 10 I = 1, 10
        A(I + N) = A(I + J) + 1
   10 CONTINUE
      END
|}

let inserted_redefinition () =
  let sess = session_of_src bystander_src in
  check_bool "parallelizable as loaded" false (chain_loop_blocked sess);
  edit_at sess 4 "B(1) = 0.0\nM = 5";
  check_bool "M redefined" true
    (match (stmt_at sess 5).Ast.node with
     | Ast.Assign (Ast.Var "M", _) -> true
     | _ -> false);
  check_scratch "M redefined after N = M" sess;
  check_bool "blocked once N = M is immovable" true (chain_loop_blocked sess);
  edit_at sess 0 "M = K + 1";
  check_scratch "then M = K + 1" sess

let keys_src =
  {|      SUBROUTINE KEYS(A, B, K, NN)
      INTEGER K, NN, M1, M2, M3, J1, J2, J3, LB, KK, I
      REAL A(500), B(500)
      M1 = K
      M2 = M1
      M3 = M2
      J1 = K
      J2 = J1
      J3 = J2
      LB = 10
      KK = 0
      B(K) = B(K) + 1.0
      B(K) = B(K) + 1.0
      DO 10 I = 1, LB
        A(I + M3) = A(I + J3) + B(I)
   10 CONTINUE
      DO 20 I = 1, 10
        A(I + M1) = A(I + J1) + 2.0
   20 CONTINUE
      DO 30 I = 1, LB
        KK = KK + 2
        A(KK + 100) = A(KK + 101) + 1.0
   30 CONTINUE
      CALL SUB(A, M2)
      DO 40 I = 1, 10
        A(I + 200) = A(I + M2)
   40 CONTINUE
      END
      SUBROUTINE SUB(X, N)
      INTEGER N
      REAL X(500)
      X(N) = 0.0
      END
|}

(* Each editable statement (by its text as loaded) and what it may
   become.  [true] marks the texts that change no fact a test reads. *)
let key_edits =
  [
    ("M1 = K", [ ("M1 = K + 1", false); ("M1 = K + 2", false); ("M1 = 3", false) ]);
    ("M2 = M1", [ ("M2 = M1 + 1", false); ("M2 = K", false); ("M2 = J1", false) ]);
    ("M3 = M2", [ ("M3 = M2 - 1", false); ("M3 = J2", false) ]);
    ("J1 = K", [ ("J1 = K + 1", false); ("J1 = NN", false) ]);
    ("J2 = J1", [ ("J2 = J1 + 1", false) ]);
    ("J3 = J2", [ ("J3 = J2 + 1", false); ("J3 = M2", false) ]);
    ("LB = 10", [ ("LB = NN", false); ("LB = 5", false); ("LB = K", false) ]);
    ("KK = KK + 2", [ ("KK = KK + 1", false); ("KK = KK - 1", false); ("KK = KK + 3", false) ]);
    ("CALL SUB(A, M2)", [ ("CALL SUB(A, J2)", false); ("CALL SUB(B, M2)", false); ("CALL SUB(A, 5)", false) ]);
    ( "A(I + M3) = A(I + J3) + B(I)",
      [ ("A(I + M3) = A(I + J3) + B(I) + 1.0", true);
        ("A(I + M3) = 2.0 * A(I + J3) + B(I)", true) ] );
    ("B(K) = B(K) + 1.0", [ ("B(K) = B(K) + 2.0", true) ]);
  ]

(* [steps] seeded edits on [keys_src]: each changes one statement to
   one of its alternatives or its original, or retypes it unchanged
   (fresh statement ids, same facts).  After every step the engine's
   graph must equal a from-scratch one, and a step that changes no fact
   a test reads must run no dependence test. *)
let key_script ~seed ~steps =
  let rng = Random.State.make [| 0x6b3e; seed |] in
  let sess = session_of_src keys_src in
  let stmts =
    List.rev
      (Ast.fold_stmts (fun acc s -> s :: acc) [] (focus_unit_of sess).Ast.body)
  in
  let slots =
    List.map
      (fun (orig, alts) -> (pos_of_text stmts orig, (orig, true) :: alts))
      key_edits
  in
  let current = Hashtbl.create 16 in
  List.iter (fun (pos, alts) -> Hashtbl.replace current pos (List.hd alts)) slots;
  ignore (Ped.Session.ddg sess);
  for step = 1 to steps do
    let pos, alts = List.nth slots (Random.State.int rng (List.length slots)) in
    let cur_text, _ = Hashtbl.find current pos in
    let text, silent =
      if Random.State.int rng 4 = 0 then (cur_text, true) (* retype *)
      else
        let text, rhs_only = List.nth alts (Random.State.int rng (List.length alts)) in
        (* an alternative is silent against the original and vice versa *)
        let _, cur_silent = Hashtbl.find current pos in
        (text, String.equal text cur_text || (rhs_only && cur_silent))
    in
    let what = Printf.sprintf "seed %d step %d: %s" seed step text in
    let s0 = Ped.Session.engine_stats sess in
    edit_at sess pos text;
    Hashtbl.replace current pos
      (text, List.assoc_opt text alts |> Option.value ~default:true);
    check_scratch what sess;
    if silent then
      check_int (what ^ ": no dependence test")
        0 (delta s0 (Ped.Session.engine_stats sess) (fun s -> s.Engine.tests_run))
  done

let key_scripts () =
  for seed = 1 to 8 do
    key_script ~seed ~steps:12
  done

(* Two sessions on one shared cache whose programs differ only in a
   second-level definition: the second replays what does not read it
   and re-tests what does. *)
let shared_cache_second_level () =
  let cache = Server.Cache.create () in
  let sharing = Server.Cache.sharing cache in
  let first = session_of_src ~sharing keys_src in
  let edited =
    let needle = "      M1 = K\n" in
    let i =
      let rec find i =
        if String.sub keys_src i (String.length needle) = needle then i
        else find (i + 1)
      in
      find 0
    in
    String.sub keys_src 0 i ^ "      M1 = K + 1\n"
    ^ String.sub keys_src (i + String.length needle)
        (String.length keys_src - i - String.length needle)
  in
  let second = session_of_src ~sharing edited in
  check_scratch "first session" first;
  check_scratch "second session" second;
  let tests s = (Ped.Session.engine_stats s).Engine.tests_run in
  check_bool "the second session replays some buckets" true
    (tests second < tests first);
  check_bool "and re-tests those that read M1" true (tests second > 0)

(* A right-hand-side-only edit on smoke deep: the edited statement's
   buckets replay under its new id, and no dependence test runs. *)
let rhs_edit_relocates () =
  let program = Ast.renumber_program (smoke_deep ()) in
  let sess = Ped.Session.load program ~unit_name:"S0001" in
  let target =
    Ast.fold_stmts
      (fun acc (s : Ast.stmt) ->
        match (acc, s.Ast.node) with
        | None, Ast.Assign (Ast.Index _, _) -> Some s
        | _ -> acc)
      None (focus_unit_of sess).Ast.body
    |> Option.get
  in
  let text =
    match target.Ast.node with
    | Ast.Assign (lhs, rhs) ->
      Printf.sprintf "%s = %s + 1" (Pretty.expr_to_string lhs)
        (Pretty.expr_to_string rhs)
    | _ -> assert false
  in
  let relocated () =
    Telemetry.value
      (Telemetry.counter (Ped.Session.telemetry sess) "ddg.bucket_relocated")
  in
  let s0 = Ped.Session.engine_stats sess and r0 = relocated () in
  ok_exn "edit" (Ped.Session.edit_stmt sess target.Ast.sid text);
  ignore (Ped.Command.run sess "deps");
  let s1 = Ped.Session.engine_stats sess in
  check_int "no dependence test" 0 (delta s0 s1 (fun s -> s.Engine.tests_run));
  check_bool "some bucket relocated" true (relocated () - r0 >= 1);
  check_scratch "after the edit" sess

let key_cases =
  [
    case "keys: an edit of a second-level definition re-tests" second_level_edit;
    case "keys: a redefinition that makes a definition immovable re-tests"
      inserted_redefinition;
    case "keys: seeded edit scripts = from-scratch, silent edits test nothing"
      key_scripts;
    case "keys: two sessions differing in a second-level definition"
      shared_cache_second_level;
    case "keys: a right-hand-side edit on smoke deep relocates, tests nothing"
      rhs_edit_relocates;
  ]

let suite =
  List.map burst_case Workloads.all
  @ summary_cases
  @ propagation_cases
  @ candidate_cases
  @ lazy_cases
  @ key_cases
  @ [
      case "stats: clean refresh is a pure cache hit" (fun () ->
          let _, sess = load "matmul" in
          let s0 = Ped.Session.engine_stats sess in
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_int "env hit" 1 (delta s0 s1 (fun s -> s.Engine.env_hits));
          check_int "no miss" 0 (delta s0 s1 (fun s -> s.Engine.env_misses));
          check_int "no tests" 0 (delta s0 s1 (fun s -> s.Engine.tests_run)));
      case "stats: edit invalidates but reuses untouched buckets" (fun () ->
          let _, sess = load "jacobi" in
          (* a fresh session's initial analysis = the full cost *)
          let full = (Ped.Session.engine_stats sess).Engine.tests_run in
          let s0 = Ped.Session.engine_stats sess in
          identity_edit sess;
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_bool "invalidated" true
            (delta s0 s1 (fun s -> s.Engine.invalidations) >= 1);
          check_bool "recomputed" true
            (delta s0 s1 (fun s -> s.Engine.env_misses) >= 1);
          check_bool "some buckets reused" true
            (delta s0 s1 (fun s -> s.Engine.ddg_bucket_hits) >= 1);
          let retested = delta s0 s1 (fun s -> s.Engine.tests_run) in
          check_bool "retested strictly less than full" true
            (retested < full && retested >= 0));
      case "stats: undo and redo run no dependence tests" (fun () ->
          let _, sess = load "jacobi" in
          identity_edit sess;
          Ped.Session.reanalyze sess;
          let s0 = Ped.Session.engine_stats sess in
          ok_exn "undo" (Ped.Session.undo sess);
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_int "undo: no tests" 0
            (delta s0 s1 (fun s -> s.Engine.tests_run));
          check_bool "undo: summary from cache" true
            (delta s0 s1 (fun s -> s.Engine.summary_hits) >= 1);
          check_int "undo: no summary rebuild" 0
            (delta s0 s1 (fun s -> s.Engine.summary_builds));
          ok_exn "redo" (Ped.Session.redo sess);
          Ped.Session.reanalyze sess;
          let s2 = Ped.Session.engine_stats sess in
          check_int "redo: no tests" 0
            (delta s1 s2 (fun s -> s.Engine.tests_run)));
      case "stats: undo rebuilds no summary among the last 8 programs"
        (fun () ->
          let _, sess = load "callnest" in
          for k = 1 to 10 do
            match first_assign sess with
            | Some { Ast.sid; node = Ast.Assign (lhs, _); _ } ->
              ok_exn "edit"
                (Ped.Session.edit_stmt sess sid
                   (Printf.sprintf "%s = %d" (Pretty.expr_to_string lhs) k));
              Ped.Session.reanalyze sess
            | _ -> failwith "no assignment"
          done;
          (* the engine holds edits 3..10; undo 8 reaches edit 2 *)
          for k = 1 to 10 do
            let s0 = Ped.Session.engine_stats sess in
            ok_exn "undo" (Ped.Session.undo sess);
            Ped.Session.reanalyze sess;
            let s1 = Ped.Session.engine_stats sess in
            check_int
              (Printf.sprintf "undo %d: summaries built" k)
              (if k <= 7 then 0 else 1)
              (delta s0 s1 (fun s -> s.Engine.summary_builds));
            check_scratch (Printf.sprintf "undo %d" k) sess
          done);
      case "stats: refocus back to a cached unit is a hit" (fun () ->
          let _, sess = load "callnest" in
          ok_exn "focus" (Ped.Session.focus sess "ROWOP");
          Ped.Session.reanalyze sess;
          let s0 = Ped.Session.engine_stats sess in
          ok_exn "refocus" (Ped.Session.focus sess "CALLNE");
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_int "env hit" 1 (delta s0 s1 (fun s -> s.Engine.env_hits));
          check_int "no tests" 0 (delta s0 s1 (fun s -> s.Engine.tests_run));
          check_scratch "refocus" sess);
      case "stats: assertion change invalidates and stays correct" (fun () ->
          let _, sess = load "symbounds" in
          let s0 = Ped.Session.engine_stats sess in
          Ped.Session.assert_value sess "M" 64;
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_bool "invalidated" true
            (delta s0 s1 (fun s -> s.Engine.invalidations) >= 1);
          check_scratch "assert" sess);
      case "baseline mode recomputes everything" (fun () ->
          let _, sess = load ~caching:false "matmul" in
          let full = (Ped.Session.engine_stats sess).Engine.tests_run in
          check_bool "initial analysis ran tests" true (full > 0);
          let s0 = Ped.Session.engine_stats sess in
          Ped.Session.reanalyze sess;
          let s1 = Ped.Session.engine_stats sess in
          check_int "refresh pays full price again" full
            (delta s0 s1 (fun s -> s.Engine.tests_run));
          check_scratch "baseline" sess);
      case "baseline mode builds one summary per program" (fun () ->
          let sess =
            Ped.Session.load ~caching:false (smoke_deep ()) ~unit_name:"S0001"
          in
          ignore (Ped.Command.run sess "loops");
          ignore (Ped.Command.run sess "advise");
          check_int "summaries built" 1
            (Ped.Session.engine_stats sess).Engine.summary_builds);
    ]
