(* Pane pins: MD5 digests of the printed loops, deps and vars panes and
   of the advise list, read through the command language exactly as a
   user sees them.  Each target is read unit by unit: [loops] and
   [deps], then every loop selected in turn with [vars] and the
   selected loop's [deps].  The marked script first rejects half of
   each loop's carried edges, accepts one and privatizes one scalar,
   then reads the same panes.  A digest that moves means a pane's text
   changed; the failure prints every target's digests as they are
   now. *)

open Fortran_front
open Dependence
open Util

let run t line = Ped.Command.run t line

let loop_sids t = List.map loop_sid (Ped.Session.loops t)

(* Every command's answer, each after its command line. *)
let transcript t lines =
  String.concat "" (List.map (fun l -> Printf.sprintf "> %s\n%s\n" l (run t l)) lines)

let pane_lines t =
  "loops" :: "deps"
  :: List.concat_map
       (fun sid -> [ Printf.sprintf "select s%d" sid; "vars"; "deps" ])
       (loop_sids t)

(* The loop's scalars, by name, that are not induction variables. *)
let scalars t sid =
  let env = Ped.Session.env t in
  match Depenv.stmt env sid with
  | Some loop ->
    Scalar_analysis.Varclass.classify ~cfg:env.Depenv.cfg env.Depenv.ctx
      env.Depenv.liveness loop
    |> Scalar_analysis.Varclass.all
    |> List.filter_map (function
         | _, Scalar_analysis.Varclass.Induction _ -> None
         | v, _ -> Some v)
  | None -> []

let first_scalar t sid = List.nth_opt (scalars t sid) 0

(* Per loop, in loop order: reject the carried edges at even positions,
   accept the one at position 1, and privatize one scalar: the first a
   carried edge names, else the loop's first non-induction scalar. *)
let mark_lines t =
  List.concat_map
    (fun sid ->
      let carried =
        List.filter
          (fun (d : Ddg.dep) -> d.Ddg.kind <> Ddg.Control)
          (Ddg.carried_by (Ped.Session.ddg t) sid)
      in
      let marks =
        List.filteri (fun i _ -> i mod 2 = 0 || i = 1) carried
        |> List.mapi (fun i (d : Ddg.dep) ->
               Printf.sprintf "mark %d %s" d.Ddg.dep_id
                 (if i = 1 then "accept" else "reject"))
      in
      let scalar =
        match
          List.find_map
            (fun (d : Ddg.dep) -> if d.Ddg.is_scalar then Some d.Ddg.var else None)
            carried
        with
        | Some v -> Some v
        | None -> first_scalar t sid
      in
      marks
      @ Option.to_list (Option.map (Printf.sprintf "private s%d %s" sid) scalar))
    (loop_sids t)

(* [read t] per unit of the program (or of [units]), focused in turn;
   the digest of everything printed.  The focus command runs first:
   OCaml evaluates [a ^ b] right to left. *)
let digest ?units program read =
  let names =
    match units with
    | Some us -> us
    | None -> List.map (fun (u : Ast.program_unit) -> u.Ast.uname) program.Ast.punits
  in
  let t = Ped.Session.load program ~unit_name:(List.hd names) in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map
             (fun u ->
               let focus = transcript t [ "unit " ^ u ] in
               focus ^ read t)
             names)))

let panes t = transcript t (pane_lines t)
let advise t = transcript t [ "advise" ]

let marked t =
  let marks = transcript t (mark_lines t) in
  marks ^ panes t

(* canonical statement ids, whatever ran before in this process *)
let workloads () =
  List.map
    (fun (w : Workloads.t) ->
      (w.Workloads.name, Ast.renumber_program (Workloads.program w)))
    Workloads.all

let smoke_profiles () =
  List.map
    (fun (p : Oracle.Stress.profile) ->
      ("smoke:" ^ p.Oracle.Stress.sp_name, Oracle.Stress.generate (Oracle.Stress.smoke p)))
    Oracle.Stress.all

let pinned_panes =
  [
    ("matmul", "4ef8d81e0899638cc547626dc9057e31");
    ("jacobi", "61058f10c5718e3d04bc3bd8b1d1b3b8");
    ("sor", "47e0af52b49ea88f7ea3b8ea94424e1a");
    ("recur", "91801278acbac04ca660361cd5374340");
    ("daxpy", "c1cf7e454b20b5b9d6a28f11f716a762");
    ("tridiag", "103b6f089ddfb540d1976d9fcc088428");
    ("sumred", "67135517a44d1c576c81dae887242132");
    ("symbounds", "180f5ac2ca02058a07e373b40c1fd19a");
    ("indexarr", "a3dfcbc901fb720928727bdb035a63b1");
    ("callnest", "69ed768bb80ca8faca51c57deec7fe05");
    ("arrpriv", "e215bed7e4c9f1c541812205fba62775");
    ("redblack", "3d88feacee7700a05c02df3239fbc6af");
    ("gauss", "526530914b78c2317c690a2422b71eeb");
    ("linesweep", "9e6831c8a886c3982c7d76aef5048911");
    ("spec77x", "630379ea261c04bf67b6f9bd1b15e7a0");
    ("sympro", "c6a7028a7b2427c54eff371628890ea2");
    ("shallow", "106251a82040decc01373c62ee4a820f");
    ("smoke:deep", "0cc2b630b306b1730eda06f50e9b7f98");
    ("smoke:wide", "bad19a9e229f2d5d4d15b1ee3a1d270c");
    ("smoke:many-units", "689a26816b04707301e30d918dd90387");
    ("full:deep S0001", "d93ab34693ad84e5acc093b2c9288e81");
  ]

let pinned_advise =
  [
    ("matmul", "43f5e463bf60c6200115c2057d84b4e2");
    ("jacobi", "29eb8ace1d79c6cfcd3cb9b687f801bb");
    ("sor", "11b9090d5f16dc8f456aff611cfd3c46");
    ("recur", "e432740b1de0555030f55f494df7a68f");
    ("daxpy", "9b100745de494022f48d042d9e68d106");
    ("tridiag", "cca560e9b605cd629a407acefeebf1c5");
    ("sumred", "84c2669cd10510c0830d6af690f8ee27");
    ("symbounds", "6ed6cda59b9b1d11280ff8309b775255");
    ("indexarr", "ccd6366354c30ffbdfb9376fde1756ff");
    ("callnest", "15ac26d6618e314d6f518493d6a77185");
    ("arrpriv", "ea0d84e2a2c5de636e4c0b6f1a6e54f4");
    ("redblack", "5dbe699652da74eb1bae7462050dde70");
    ("gauss", "37107e43050cdb1a7f203dc98ed63478");
    ("linesweep", "c8561618608c8a68d28fb54aecb7b980");
    ("spec77x", "6765a87f9f2b23764e51fdaaf1ced9e5");
    ("sympro", "063e032151554d05ce9418f12cf1ae1b");
    ("shallow", "257f851acf07da11ce3149a45df7db37");
    ("smoke:deep", "24091a62fee8d13903e79b03348646eb");
    ("smoke:wide", "aa91f440e3412b676d4610eeac271ade");
    ("smoke:many-units", "6285747eb7f7f22a6fa301991a6c969c");
  ]

let pinned_marked =
  [
    ("matmul", "58392e60f4ea0a0a811a4e38ccbd27e5");
    ("jacobi", "c7f8c44dbc9e3fbaa42a9407deadfc45");
    ("sor", "39a760e064ba6c21af2920cd9b4207e6");
    ("recur", "6f1cc9c5e8ae22c8b28e16061d3924ac");
    ("daxpy", "e6a33a7db2107b3b67e3110a9fe6f9c4");
    ("tridiag", "200cc49ab8051e7446a4c4932ea7ec19");
    ("sumred", "dddeaeace1d8fc208cd36070d763c82b");
    ("symbounds", "c8c714f1a9d5cb3c1c18b1e5947492c7");
    ("indexarr", "d0a43e00c23c04674a4fd12a0aa89845");
    ("callnest", "db1d608c1335afb681c6872ab00aee87");
    ("arrpriv", "df8fd4975100df634128c8a164400e0f");
    ("redblack", "4f2409f8273680ee44ceec5cfcb19f8b");
    ("gauss", "88801d311b0044814a964675c096bdb1");
    ("linesweep", "300c7b6704da284e9b964e2727204435");
    ("spec77x", "bef5bb355a5233265ffce22bc5fec177");
    ("sympro", "2cad0386d1e97fac2f31bfae3b9887ec");
    ("shallow", "7474b2e0d0ca7aeb18ae95441ceaca34");
  ]

(* Compare every target's digest with its pin; on any difference, fail
   with the whole table as it is now. *)
let check_pins ~pins targets =
  let now = List.map (fun (name, d) -> (name, d ())) targets in
  if now <> pins then
    Alcotest.failf "pane digests moved or are not pinned; now:\n%s"
      (String.concat "\n"
         (List.map (fun (name, d) -> Printf.sprintf "    (%S, %S);" name d) now))

(* ---- the pane view ---- *)

let deep_s0001 () =
  Ped.Session.load (Oracle.Stress.generate Oracle.Stress.deep) ~unit_name:"S0001"

let carried_edges t =
  List.filter
    (fun (d : Ddg.dep) -> d.Ddg.carrier <> None && d.Ddg.kind <> Ddg.Control)
    (Ped.Session.ddg t).Ddg.deps

(* With 100 edges rejected, a loops read looks up at most the carried
   edges, each once; later loops and deps reads of the same version
   add no lookup beyond the edges the deps pane first shows. *)
let lookups_per_read () =
  let t = deep_s0001 () in
  let carried = carried_edges t in
  let step = List.length carried / 100 in
  check_bool "at least 100 carried edges" true (step >= 1);
  List.iteri
    (fun i (d : Ddg.dep) ->
      if i mod step = 0 && i / step < 100 then
        ignore (Ped.Session.mark_dep t d.Ddg.dep_id Ped.Marking.Rejected))
    carried;
  check_int "100 marks" 100 (Ped.Marking.count (Ped.Session.marking t));
  let lookups read =
    let before = Ped.Marking.lookups () in
    ignore (read t);
    Ped.Marking.lookups () - before
  in
  let first = lookups (fun t -> Ped.Pane.loops_pane t) in
  check_bool
    (Printf.sprintf "loops read: %d lookups for %d carried edges" first
       (List.length carried))
    true
    (first <= List.length carried);
  check_int "second loops read" 0 (lookups Ped.Pane.loops_pane);
  let deps = lookups Ped.Pane.dependence_pane in
  check_bool "deps read: only edges not looked up yet" true
    (first + deps <= List.length (Ped.Session.ddg t).Ddg.deps);
  check_int "second deps read" 0 (lookups Ped.Pane.dependence_pane);
  check_int "loops after deps" 0 (lookups Ped.Pane.loops_pane)

(* The callees are priced from the engine's environments, one per unit
   version: a loops read builds the callees' environments once, and
   after an edit of the focus unit the unchanged callees' environments
   are cache hits, so the next loops read builds none. *)
let callee_costs_once () =
  let t = deep_s0001 () in
  let prev = Telemetry.default () in
  Fun.protect ~finally:(fun () -> Telemetry.set_default prev) @@ fun () ->
  let tel = Telemetry.retained () in
  Telemetry.set_default tel;
  let envs () =
    List.length
      (List.filter
         (fun (s : Telemetry.span_record) -> s.Telemetry.sp_name = "analysis.depenv")
         (Telemetry.drain_spans tel))
  in
  ignore (Ped.Pane.loops_pane t);
  check_bool "first read prices the callees" true (envs () > 0);
  ignore (Ped.Pane.loops_pane t);
  ignore (Ped.Pane.dependence_pane t);
  ignore (Ped.Pane.loops_pane t);
  check_int "later reads" 0 (envs ());
  (* retype S0001's first assignment: same text, fresh statement ids *)
  let first =
    Ast.fold_stmts
      (fun acc (s : Ast.stmt) ->
        match (acc, s.Ast.node) with None, Ast.Assign _ -> Some s | _ -> acc)
      None (Ped.Session.env t).Depenv.punit.Ast.body
    |> Option.get
  in
  (match Ped.Session.edit_stmt t first.Ast.sid (Pretty.stmt_to_string first) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Ped.Session.reanalyze t;
  check_int "the edit rebuilds S0001 only" 1 (envs ());
  ignore (Ped.Pane.loops_pane t);
  check_int "loops read after the edit" 0 (envs ())

(* No dark time: the environments a loops read builds to price the
   callees sit under a named span, as ped --profile records them (one
   sink, the session's and the process default). *)
let callee_costs_named () =
  let tel = Telemetry.make ~record_spans:true () in
  let prev = Telemetry.default () in
  Fun.protect ~finally:(fun () -> Telemetry.set_default prev) @@ fun () ->
  Telemetry.set_default tel;
  let w = Option.get (Workloads.by_name "callnest") in
  let t =
    Ped.Session.load ~telemetry:tel (Workloads.program w)
      ~unit_name:(Workloads.main_unit w)
  in
  ignore (Telemetry.drain_spans tel);
  ignore (run t "loops");
  let envs =
    List.filter
      (fun (s : Telemetry.span_record) -> s.Telemetry.sp_name = "analysis.depenv")
      (Telemetry.drain_spans tel)
  in
  check_bool "the read builds environments" true (envs <> []);
  List.iter
    (fun (s : Telemetry.span_record) ->
      check_bool
        (String.concat " > " s.Telemetry.sp_path ^ " is under a named span")
        true
        (List.length s.Telemetry.sp_path > 1))
    envs

(* A fresh session on the same program, with the same marks on its
   graph's edges, the same private variables and the same selection. *)
let fresh_like t =
  let f =
    Ped.Session.load (Ped.Session.program t) ~unit_name:(Ped.Session.unit_name t)
  in
  List.iter
    (fun (d : Ddg.dep) ->
      match Ped.Marking.status_of (Ped.Session.marking t) d with
      | (Ped.Marking.Accepted | Ped.Marking.Rejected) as s ->
        ignore (Ped.Session.mark_dep f d.Ddg.dep_id s)
      | Ped.Marking.Proven | Ped.Marking.Pending -> ())
    (Ped.Session.ddg f).Ddg.deps;
  List.iter
    (fun (sid, v) -> Ped.Session.privatize f sid v)
    (List.rev (Ped.Session.user_private t));
  Option.iter (fun sid -> ignore (Ped.Session.select f sid)) (Ped.Session.selected t);
  f

(* the panes, and the callee costs behind the loops pane's shares,
   which print too coarsely to show every change of a callee *)
let same_as_fresh what t =
  let f = fresh_like t in
  check_string (what ^ ": loops") (Ped.Pane.loops_pane f) (Ped.Pane.loops_pane t);
  check_string (what ^ ": deps") (Ped.Pane.dependence_pane f) (Ped.Pane.dependence_pane t);
  List.iter
    (fun (u : Ast.program_unit) ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "%s: cost of %s" what u.Ast.uname)
        (Ped.Session.callee_cost f u.Ast.uname)
        (Ped.Session.callee_cost t u.Ast.uname))
    (Ped.Session.program t).Ast.punits

(* After every kind of change the panes are those of a fresh session:
   the memoized view and callee costs never outlive their inputs.
   Each step reads the panes first, so a stale view would be reused. *)
let never_stale () =
  let program = Oracle.Stress.generate (Oracle.Stress.smoke Oracle.Stress.deep) in
  let t = Ped.Session.load program ~unit_name:"S0000" in
  same_as_fresh "load" t;
  let blocked =
    List.find
      (fun sid -> Ped.Session.blocking t sid <> [])
      (loop_sids t)
  in
  List.iter
    (fun (d : Ddg.dep) ->
      ignore (Ped.Session.mark_dep t d.Ddg.dep_id Ped.Marking.Rejected))
    (Ped.Session.blocking t blocked);
  check_bool "rejections unblock" true (Ped.Session.blocking t blocked = []);
  same_as_fresh "mark" t;
  (* a loop only its scalars block: privatizing them all unblocks it *)
  let by_scalars =
    List.find
      (fun sid ->
        Ped.Session.blocking t sid = [] && not (Ped.Session.is_parallelizable t sid))
      (loop_sids t)
  in
  List.iter (Ped.Session.privatize t by_scalars) (scalars t by_scalars);
  check_bool "privatizing unblocks" true (Ped.Session.is_parallelizable t by_scalars);
  same_as_fresh "privatize" t;
  check_bool "select" true (Ped.Session.select t blocked = Ok ());
  same_as_fresh "select" t;
  let u =
    List.find
      (fun (u : Ast.program_unit) -> String.equal u.Ast.uname "S0000")
      (Ped.Session.program t).Ast.punits
  in
  let target =
    Ast.fold_stmts
      (fun acc (s : Ast.stmt) ->
        match (acc, s.Ast.node) with
        | None, Ast.Assign (lhs, rhs) ->
          Some
            (s.Ast.sid,
             Printf.sprintf "%s = %s + 1.0" (Pretty.expr_to_string lhs)
               (Pretty.expr_to_string rhs))
        | _ -> acc)
      None u.Ast.body
    |> Option.get
  in
  check_bool "edit" true (Ped.Session.edit_stmt t (fst target) (snd target) = Ok ());
  same_as_fresh "edit" t;
  check_bool "focus" true (Ped.Session.focus t "STRESS" = Ok ());
  same_as_fresh "focus on the caller" t;
  check_bool "undo" true (Ped.Session.undo t = Ok ());
  same_as_fresh "undo" t;
  check_bool "focus" true (Ped.Session.focus t "S0001" = Ok ());
  same_as_fresh "focus" t;
  check_bool "focus back" true (Ped.Session.focus t "S0000" = Ok ());
  same_as_fresh "focus back" t;
  ignore (Ped.Session.mark_dep t (List.hd (carried_edges t)).Ddg.dep_id Ped.Marking.Pending);
  same_as_fresh "clear a mark" t

(* ---- the row writer ---- *)

(* The dependence pane's row as the Printf format prints it: the
   reference the buffer writer must match byte for byte. *)
let printf_row status (d : Ddg.dep) =
  let dirs =
    match d.Ddg.dirs with
    | [] -> "-"
    | dv :: _ ->
      Printf.sprintf "(%s)"
        (String.concat "," (Array.to_list (Array.map Dtest.direction_to_string dv)))
  in
  let dist =
    if Array.exists Option.is_some d.Ddg.dist then
      Printf.sprintf " d=(%s)"
        (String.concat ","
           (Array.to_list
              (Array.map (function Some n -> string_of_int n | None -> "*") d.Ddg.dist)))
    else ""
  in
  let level = match d.Ddg.level with Some l -> Printf.sprintf "L%d" l | None -> "indep" in
  Printf.sprintf "#%-4d %-7s %-8s s%-4d -> s%-4d %-10s %-6s %s%s" d.Ddg.dep_id
    (Ddg.kind_to_string d.Ddg.kind)
    (if d.Ddg.var = "" then "-" else d.Ddg.var)
    d.Ddg.src d.Ddg.dst dirs level
    (Ped.Marking.status_to_string status)
    dist

let written_row status d =
  let buf = Buffer.create 80 in
  Ped.Pane.add_dep_row buf ~status d;
  Buffer.contents buf

let printf_pane t =
  let deps = Ped.Session.visible_deps t in
  let view = Ped.Session.view t in
  Printf.sprintf "dependences (%d shown, filter: %s)\n" (List.length deps)
    (Ped.Filter.dep_filter_to_string (Ped.Session.dep_filter t))
  ^ String.concat ""
      (List.map (fun d -> printf_row (Ped.View.status view d) d ^ "\n") deps)

(* Every edge of the unit's graph, with the status the view gives it,
   and the pane as the session shows it. *)
let rows_match what t =
  let view = Ped.Session.view t in
  List.iter
    (fun (d : Ddg.dep) ->
      let status = Ped.View.status view d in
      check_string
        (Printf.sprintf "%s #%d" what d.Ddg.dep_id)
        (printf_row status d) (written_row status d))
    (Ped.Session.ddg t).Ddg.deps;
  check_string (what ^ ": pane") (printf_pane t) (Ped.Pane.dependence_pane t)

let writer_matches_printf_programs () =
  List.iter
    (fun (name, (program : Ast.program)) ->
      List.iter
        (fun (u : Ast.program_unit) ->
          let unit_name = u.Ast.uname in
          let t = Ped.Session.load program ~unit_name in
          rows_match (name ^ " " ^ unit_name) t;
          ignore (transcript t (mark_lines t));
          rows_match (name ^ " " ^ unit_name ^ " marked") t)
        program.Ast.punits)
    (workloads () @ smoke_profiles ())

let crafted ?(dirs = []) ?(dist = [||]) ?(level = None) ?(var = "A")
    ?(kind = Ddg.Flow) ~id ~src ~dst () : Ddg.dep =
  { Ddg.dep_id = id; kind; var; src; dst; src_ref = None; dst_ref = None; level;
    carrier = None; dirs; dist; exact = false; test = "crafted"; is_scalar = false;
    prov = Explain.Provenance.simple ~tier:"crafted" Explain.Provenance.Assumed }

(* Edges the programs may never produce: negative and unknown
   distances, ids and statements of five digits or more, long names,
   vectors wider than their column, control edges, every status. *)
let writer_matches_printf_crafted () =
  let open Dtest in
  let edges =
    [
      crafted ~id:1 ~src:2 ~dst:3 ();
      crafted ~id:12 ~src:3 ~dst:3 ~dirs:[ [| Dlt |] ] ~dist:[| Some 1 |] ~level:(Some 1) ();
      crafted ~id:123 ~src:4 ~dst:5 ~dirs:[ [| Deq; Dgt |]; [| Dlt; Dlt |] ]
        ~dist:[| Some 0; Some (-3) |] ~level:(Some 2) ~kind:Ddg.Anti ();
      crafted ~id:9999 ~src:10_000 ~dst:123_456 ~dirs:[ [| Dlt; Deq; Dgt |] ]
        ~dist:[| None; Some (-12); None |] ~level:(Some 1) ~kind:Ddg.Output ();
      crafted ~id:10_000 ~src:99_999 ~dst:1 ~dirs:[ [| Dlt; Deq; Deq; Deq; Dgt |] ]
        ~dist:[| Some 1; Some 0; None; Some 0; Some (-1) |] ~level:(Some 1) ();
      crafted ~id:1_000_000 ~src:7 ~dst:8
        ~dirs:[ [| Deq; Deq; Deq; Deq; Deq; Deq; Dlt |] ]
        ~dist:[| None; None; None; None; None; None; None |] ~level:(Some 7)
        ~var:"AVERYLONGNAME" ();
      crafted ~id:42 ~src:1 ~dst:2 ~dist:[| None; None |] ~var:"ABCDEFGH" ();
      crafted ~id:43 ~src:1 ~dst:2 ~dirs:[ [||] ] ~var:"ABCDEFGHI" ();
      crafted ~id:44 ~src:(-5) ~dst:0 ~dist:[| Some min_int; Some max_int |]
        ~level:(Some 123_456) ();
      crafted ~id:7 ~src:11 ~dst:12 ~var:"" ~kind:Ddg.Control ();
      crafted ~id:8 ~src:11 ~dst:13 ~var:"" ~kind:Ddg.Control ~level:(Some 1) ();
    ]
  in
  List.iter
    (fun (d : Ddg.dep) ->
      List.iter
        (fun status ->
          check_string
            (Printf.sprintf "#%d %s" d.Ddg.dep_id (Ped.Marking.status_to_string status))
            (printf_row status d) (written_row status d))
        Ped.Marking.[ Proven; Pending; Accepted; Rejected ])
    edges

(* ---- every advice holds ---- *)

(* The loop directly inside [sid]. *)
let inner_loop t sid =
  List.find_map
    (fun (lp : Loopnest.loop) ->
      match List.rev lp.Loopnest.parents with
      | p :: _ when p = sid -> Some (loop_sid lp)
      | _ -> None)
    (Ped.Session.loops t)

(* What a suggestion promises, checked on a fresh session of the same
   program and unit: after [skew sN 1] and [interchange sN] the new
   inner loop parallelizes; rejecting the pending edges that block an
   [assert] loop parallelizes it. *)
let holds program unit_name (s : Ped.Advisor.suggestion) =
  let t = Ped.Session.load program ~unit_name in
  let sid = s.Ped.Advisor.loop in
  let applied name args =
    match Ped.Session.transform t name args with
    | Ok (_, applied) -> applied
    | Error _ -> false
  in
  match s.Ped.Advisor.action with
  | "skew" ->
    let skewed = applied "skew" (Transform.Catalog.With_factor (sid, 1)) in
    let interchanged = skewed && applied "interchange" (Transform.Catalog.On_loop sid) in
    interchanged
    && Option.fold ~none:false ~some:(Ped.Session.is_parallelizable t)
         (inner_loop t sid)
  | "assert" ->
    List.iter
      (fun (d : Ddg.dep) ->
        if Ped.View.status (Ped.Session.view t) d = Ped.Marking.Pending then
          ignore (Ped.Session.mark_dep t d.Ddg.dep_id Ped.Marking.Rejected))
      (Ped.Session.blocking t sid);
    Ped.Session.is_parallelizable t sid
  | _ -> true

(* Every skew and assert suggestion on every unit of the workloads and
   the smoke profiles does what it says. *)
let every_advice_holds () =
  let false_advice =
    List.concat_map
      (fun (name, (program : Ast.program)) ->
        List.concat_map
          (fun (u : Ast.program_unit) ->
            let unit_name = u.Ast.uname in
            let t = Ped.Session.load program ~unit_name in
            List.filter_map
              (fun (s : Ped.Advisor.suggestion) ->
                if holds program unit_name s then None
                else
                  Some
                    (Printf.sprintf "%s %s s%d %s" name unit_name s.Ped.Advisor.loop
                       s.Ped.Advisor.action))
              (Ped.Advisor.advise t))
          program.Ast.punits)
      (workloads () @ smoke_profiles ())
  in
  check_string "false advice" "" (String.concat "\n" false_advice)

let suite =
  [
    case "panes match pinned digests" (fun () ->
        check_pins ~pins:pinned_panes
          (List.map
             (fun (name, p) -> (name, fun () -> digest p panes))
             (workloads () @ smoke_profiles ())
          @ [
              ( "full:deep S0001",
                fun () ->
                  digest ~units:[ "S0001" ] (Oracle.Stress.generate Oracle.Stress.deep)
                    panes );
            ]));
    case "advise matches pinned digests" (fun () ->
        check_pins ~pins:pinned_advise
          (List.map
             (fun (name, p) -> (name, fun () -> digest p advise))
             (workloads () @ smoke_profiles ())));
    case "marked panes match pinned digests" (fun () ->
        check_pins ~pins:pinned_marked
          (List.map (fun (name, p) -> (name, fun () -> digest p marked)) (workloads ())));
      case "a loops read looks each edge up at most once" lookups_per_read;
    case "callee costs build one Depenv per unit per version" callee_costs_once;
    case "callee costs run under a named span" callee_costs_named;
    case "the view is never stale" never_stale;
    case "every advice holds" every_advice_holds;
    case "the row writer prints every program's edges as Printf does"
      writer_matches_printf_programs;
    case "the row writer prints crafted edges as Printf does" writer_matches_printf_crafted;
  ]
