open Fortran_front
open Dependence

let help_text =
  String.concat "\n"
    [
      "commands:";
      "  units | unit NAME | loops | select sN | outline | callgraph [dot]";
      "  src [loops|find TEXT|all]";
      "  deps [var X|kind true/anti/output/control|carried|status S|scalar|all|reset]";
      "  deps dot    (Graphviz of the selection's dependences)";
      "  vars | display | stats";
      "  mark N accept|reject|pending";
      "  assert VAR = N | assert VAR in LO HI | assert perm ARR | private sN VAR";
      "  why N | why sA:sB   (provenance of a dependence / of its absence)";
      "  why slow [sN]       (run and diagnose parallel performance)";
      "  explain T ARGS      (diagnosis plus the blocking edges' provenance)";
      "  preview T ARGS | apply T ARGS [!] | edit sN TEXT";
      "  undo | redo | history   (edits, transformations, assertions, marks, privates)";
      "  diff (changes vs the loaded program) | write FILE";
      "  estimate [P] | advise | simulate [P] [seq|reverse|shuffle [SEED]]";
      "  engine (incremental-analysis cache statistics)";
      "transformations: " ^ String.concat ", " Transform.Catalog.names;
    ]

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

(* Statement targets: [sN] is a statement id; [lN] is the N-th loop of
   the focus unit in preorder (1-based) — stable across reloads, which
   statement ids are not, so scripts use it. *)
let parse_sid t tok =
  if String.length tok > 1 && tok.[0] = 's' then
    int_of_string_opt (String.sub tok 1 (String.length tok - 1))
  else if String.length tok > 1 && tok.[0] = 'l' then
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some n -> (
      match List.nth_opt (Session.loops t) (n - 1) with
      | Some lp -> Some lp.Dependence.Loopnest.lstmt.Ast.sid
      | None -> None)
    | None -> None
  else None

let parse_transform_args t toks : Transform.Catalog.args option =
  match toks with
  | [ a ] -> Option.map (fun s -> Transform.Catalog.On_loop s) (parse_sid t a)
  | [ a; b ] -> (
    match (parse_sid t a, parse_sid t b) with
    | Some x, Some y -> Some (Transform.Catalog.On_pair (x, y))
    | Some x, None -> (
      match int_of_string_opt b with
      | Some n -> Some (Transform.Catalog.With_factor (x, n))
      | None -> Some (Transform.Catalog.With_var (x, String.uppercase_ascii b)))
    | _ -> None)
  | _ -> None

(* The optional leading processor count of [estimate] and [simulate]:
   8 when absent, an error naming the argument when below 1. *)
let processors = function
  | n :: rest when int_of_string_opt n <> None ->
    let p = Option.get (int_of_string_opt n) in
    if p >= 1 then Ok (p, rest)
    else Error (Printf.sprintf "error: processor count %s must be at least 1" n)
  | rest -> Ok (8, rest)

let dep_kind_of_string = function
  | "true" | "flow" -> Some Ddg.Flow
  | "anti" -> Some Ddg.Anti
  | "output" -> Some Ddg.Output
  | "control" -> Some Ddg.Control
  | _ -> None

let status_of_string = function
  | "proven" -> Some Marking.Proven
  | "pending" -> Some Marking.Pending
  | "accepted" | "accept" -> Some Marking.Accepted
  | "rejected" | "reject" -> Some Marking.Rejected
  | _ -> None

let rec update_filter t (f : Filter.dep_filter) toks =
  match toks with
  | [] -> Ok f
  | "var" :: v :: rest ->
    update_filter t { f with Filter.f_var = Some (String.uppercase_ascii v) } rest
  | "kind" :: k :: rest -> (
    match dep_kind_of_string k with
    | Some kind ->
      update_filter t
        { f with Filter.f_kind = Some kind; f_hide_control = false }
        rest
    | None -> Error (Printf.sprintf "unknown dependence kind %s" k))
  | "carried" :: rest -> update_filter t { f with Filter.f_carried_only = true } rest
  | "scalar" :: rest -> update_filter t { f with Filter.f_hide_scalar = true } rest
  | "status" :: s :: rest -> (
    match status_of_string s with
    | Some st -> update_filter t { f with Filter.f_status = Some st } rest
    | None -> Error (Printf.sprintf "unknown status %s" s))
  | "all" :: rest -> update_filter t Filter.show_all rest
  | "reset" :: rest -> update_filter t Filter.default_dep_filter rest
  | tok :: rest -> (
    match parse_sid t tok with
    | Some sid -> update_filter t { f with Filter.f_stmt = Some sid } rest
    | None -> Error (Printf.sprintf "unknown filter word %s" tok))

(* The why command's pair form: every tested outcome between two
   statements — surviving edges with their provenance, and the
   disproved-pair table's answer to "why is there NO dependence". *)
let why_pair t ~src ~dst =
  let ddg = Session.ddg t in
  let deps =
    List.filter
      (fun (d : Ddg.dep) ->
        (d.Ddg.src = src && d.Ddg.dst = dst)
        || (d.Ddg.src = dst && d.Ddg.dst = src))
      ddg.Ddg.deps
  in
  let nodeps = Ddg.why_no ddg ~src ~dst in
  let dep_blocks =
    List.map
      (fun (d : Ddg.dep) ->
        Explain.Chain.render_to_string
          ~header:(Format.asprintf "#%d %a" d.Ddg.dep_id Ddg.pp_dep d)
          d.Ddg.prov)
      deps
  in
  let nodep_blocks =
    List.map
      (fun (nd : Ddg.nodep) ->
        Explain.Chain.render_to_string
          ~header:
            (Printf.sprintf "no dependence on %s: s%d -> s%d" nd.Ddg.nd_var
               nd.Ddg.nd_src nd.Ddg.nd_dst)
          nd.Ddg.nd_prov)
      nodeps
  in
  match dep_blocks @ nodep_blocks with
  | [] ->
    Printf.sprintf "nothing recorded between s%d and s%d (no pair tested)" src
      dst
  | blocks -> String.concat "\n" blocks

let why_dep t id =
  match Ddg.find_dep (Session.ddg t) id with
  | Some d ->
    Explain.Chain.render_to_string
      ~header:(Format.asprintf "#%d %a" d.Ddg.dep_id Ddg.pp_dep d)
      d.Ddg.prov
  | None -> Printf.sprintf "error: no dependence #%d" id

(* preview prints the diagnosis; explain adds the provenance of each
   blocking edge it names. *)
let diagnose_transform ~chains t name args =
  match Session.diagnose t name args with
  | Error e -> "error: " ^ e
  | Ok d ->
    let blocking = if chains then Transform.Diagnosis.blocking d else [] in
    let chains =
      List.map
        (fun id ->
          match Ddg.find_dep (Session.ddg t) id with
          | Some dep ->
            Explain.Chain.render_to_string
              ~header:(Format.asprintf "#%d %a" id Ddg.pp_dep dep)
              dep.Ddg.prov
          | None ->
            Printf.sprintf
              "#%d (edge of the transformed candidate, not in the current \
               graph)"
              id)
        blocking
    in
    String.concat "\n"
      (Transform.Diagnosis.to_string d
      ::
      (if blocking = [] then []
       else "blocking dependences:" :: chains))

(* A minimal LCS diff over source lines, for the [diff] command. *)
let line_diff (a : string array) (b : string array) : string list =
  let n = Array.length a and m = Array.length b in
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if String.equal a.(i) b.(j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let out = ref [] in
  let rec walk i j =
    if i < n && j < m && String.equal a.(i) b.(j) then begin
      out := ("  " ^ a.(i)) :: !out;
      walk (i + 1) (j + 1)
    end
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then begin
      out := ("+ " ^ b.(j)) :: !out;
      walk i (j + 1)
    end
    else if i < n then begin
      out := ("- " ^ a.(i)) :: !out;
      walk (i + 1) j
    end
  in
  walk 0 0;
  List.rev !out

(* A command's answer: what it did, or why it was refused. *)
let answer result ok =
  match result with Ok () -> ok | Error e -> "error: " ^ e

let run (t : Session.t) (line : string) : string =
  let line = String.trim line in
  match tokens line with
  | [] -> ""
  | "help" :: _ -> help_text
  | "units" :: _ ->
    String.concat "\n"
      (List.map
         (fun (u : Ast.program_unit) ->
           Printf.sprintf "%s%s" u.Ast.uname
             (if String.equal u.Ast.uname (Session.unit_name t) then
                "   <- focus"
              else ""))
         (Session.program t).Ast.punits)
  | [ "unit"; name ] ->
    let name = String.uppercase_ascii name in
    answer (Session.focus t name) ("focused on " ^ name)
  | "loops" :: _ -> Pane.loops_pane t
  | [ "select"; s ] -> (
    match parse_sid t s with
    | Some sid ->
      answer (Session.select t sid) (Printf.sprintf "selected loop s%d" sid)
    | None -> "error: expected a target like s12 or l2")
  | "src" :: rest ->
    (match rest with
    | [ "loops" ] -> Session.set_src_filter t Filter.Src_loops
    | "find" :: words ->
      Session.set_src_filter t
        (Filter.Src_contains (String.uppercase_ascii (String.concat " " words)))
    | [ "all" ] | [] -> Session.set_src_filter t Filter.Src_all
    | _ -> ());
    Pane.source_pane t
  | [ "deps"; "dot" ] ->
    Ddg.dot ?loop:(Session.selected t) (Session.env t) (Session.ddg t)
  | "deps" :: rest -> (
    match update_filter t (Session.dep_filter t) rest with
    | Ok f ->
      Session.set_dep_filter t f;
      Pane.dependence_pane t
    | Error e -> "error: " ^ e)
  | "vars" :: _ -> Pane.variable_pane t
  | "display" :: _ -> Pane.full_display t
  | "callgraph" :: rest -> (
    match Session.interproc t with
    | None -> "error: interprocedural analysis is off (reload without --no-interproc)"
    | Some summary ->
      let cg = Interproc.Summary.callgraph summary in
      if rest = [ "dot" ] then Interproc.Callgraph.dot cg
      else
        String.concat "\n"
          (List.map
             (fun name ->
               let callees = Interproc.Callgraph.callees_of cg name in
               if callees = [] then Printf.sprintf "%s" name
               else
                 Printf.sprintf "%s -> %s" name (String.concat ", " callees))
             (Interproc.Callgraph.unit_names cg)))
  | "outline" :: _ -> (
    (* progressive disclosure: loops and calls only, with nesting *)
    match
      List.find_opt
        (fun (u : Ast.program_unit) ->
          String.equal u.Ast.uname (Session.unit_name t))
        (Session.program t).Ast.punits
    with
    | None -> "error: no focus unit"
    | Some u ->
      let buf = Buffer.create 256 in
      let rec walk depth stmts =
        List.iter
          (fun (s : Ast.stmt) ->
            match s.Ast.node with
            | Ast.Do (h, body) ->
              Buffer.add_string buf
                (Printf.sprintf "%ss%-4d %s%sDO %s = %s, %s\n"
                   (String.make 2 ' ') s.Ast.sid
                   (String.make (2 * depth) ' ')
                   (if h.Ast.parallel then "PARALLEL " else "")
                   h.Ast.dvar
                   (Pretty.expr_to_string h.Ast.lo)
                   (Pretty.expr_to_string h.Ast.hi));
              walk (depth + 1) body
            | Ast.Call (name, _) ->
              Buffer.add_string buf
                (Printf.sprintf "%ss%-4d %sCALL %s\n" (String.make 2 ' ')
                   s.Ast.sid
                   (String.make (2 * depth) ' ')
                   name)
            | Ast.If (branches, els) ->
              List.iter (fun (_, b) -> walk depth b) branches;
              walk depth els
            | _ -> ())
          stmts
      in
      Buffer.add_string buf (Printf.sprintf "outline of %s:\n" u.Ast.uname);
      walk 0 u.Ast.body;
      Buffer.contents buf)
  | "stats" :: _ ->
    let s = (Session.ddg t).Ddg.stats in
    String.concat "\n"
      (Printf.sprintf "reference pairs tested: %d" s.Ddg.pairs_tested
      :: Printf.sprintf "dependences: %d proven, %d pending" s.Ddg.proven
           s.Ddg.pending
      :: List.map
           (fun (test, n) -> Printf.sprintf "  disproved by %-14s %d" test n)
           s.Ddg.disproved)
  | [ "mark"; n; how ] -> (
    match (int_of_string_opt n, status_of_string how) with
    | Some id, Some status -> (
      let proven_warning =
        match
          List.find_opt
            (fun (d : Ddg.dep) -> d.Ddg.dep_id = id)
            (Session.ddg t).Ddg.deps
        with
        | Some d when d.Ddg.exact && status = Marking.Rejected ->
          "\nwarning: this dependence was proven by an exact test"
        | _ -> ""
      in
      answer (Session.mark_dep t id status)
        (Printf.sprintf "dependence #%d marked %s%s" id
           (Marking.status_to_string status)
           proven_warning))
    | _ -> "error: usage: mark N accept|reject|pending")
  | [ "assert"; "perm"; arr ] ->
    let arr = String.uppercase_ascii arr in
    answer (Session.assert_injective t arr)
      (Printf.sprintf "asserted: %s is a permutation (injective)" arr)
  | [ "assert"; var; "in"; lo; hi ] -> (
    match (int_of_string_opt lo, int_of_string_opt hi) with
    | Some l, Some h when l <= h ->
      let var = String.uppercase_ascii var in
      answer (Session.assert_range t var l h)
        (Printf.sprintf "asserted: %d <= %s <= %d" l var h)
    | _ -> "error: usage: assert VAR in LO HI")
  | [ "assert"; var; "="; n ] -> (
    match int_of_string_opt n with
    | Some v ->
      let var = String.uppercase_ascii var in
      answer (Session.assert_value t var v)
        (Printf.sprintf "asserted: %s = %d" var v)
    | None -> "error: usage: assert VAR = N")
  | [ "private"; s; var ] -> (
    match parse_sid t s with
    | Some sid ->
      let var = String.uppercase_ascii var in
      answer (Session.privatize t sid var)
        (Printf.sprintf "%s is private in loop s%d" var sid)
    | None -> "error: usage: private sN VAR")
  | "why" :: "slow" :: rest -> (
    let focus =
      match rest with
      | [] -> Ok None
      | [ tok ] -> (
        match parse_sid t tok with
        | Some sid -> Ok (Some sid)
        | None -> Error ())
      | _ -> Error ()
    in
    match focus with
    | Error () -> "error: usage: why slow [sN]"
    | Ok focus -> (
      try
        let d = Perfdebug.Driver.diagnose (Session.program t) in
        Perfdebug.Driver.render ?focus d
      with Sim.Interp.Runtime_error m -> "error: execution failed: " ^ m))
  | [ "why"; tok ] when String.contains tok ':' -> (
    match String.split_on_char ':' tok with
    | [ a; b ] -> (
      match (parse_sid t a, parse_sid t b) with
      | Some src, Some dst -> why_pair t ~src ~dst
      | _ -> "error: usage: why N | why sA:sB")
    | _ -> "error: usage: why N | why sA:sB")
  | [ "why"; n ] -> (
    match int_of_string_opt n with
    | Some id -> why_dep t id
    | None -> "error: usage: why N | why sA:sB")
  | (("preview" | "explain") as verb) :: name :: rest -> (
    match parse_transform_args t rest with
    | Some args ->
      diagnose_transform ~chains:(String.equal verb "explain") t name args
    | None -> "error: bad transformation arguments")
  | "apply" :: name :: rest -> (
    let force, rest =
      match List.rev rest with
      | "!" :: r -> (true, List.rev r)
      | _ -> (false, rest)
    in
    match parse_transform_args t rest with
    | Some args -> (
      match Session.transform ~force t name args with
      | Ok (d, true) ->
        Printf.sprintf "%s applied\n%s" name (Transform.Diagnosis.to_string d)
      | Ok (d, false) ->
        Printf.sprintf "%s NOT applied\n%s" name
          (Transform.Diagnosis.to_string d)
      | Error e -> "error: " ^ e)
    | None -> "error: bad transformation arguments")
  | "edit" :: s :: rest when rest <> [] -> (
    match parse_sid t s with
    | Some sid ->
      answer
        (Session.edit_stmt t sid (String.concat " " rest))
        (Printf.sprintf "statement s%d replaced" sid)
    | None -> "error: usage: edit sN TEXT")
  | "history" :: _ -> (
    match Session.history t with
    | [] -> "no changes yet"
    | h ->
      let n = List.length h in
      String.concat "\n"
        (List.mapi (fun i what -> Printf.sprintf "%2d. %s" (n - i) what) h))
  | "undo" :: _ -> answer (Session.undo t) "undone"
  | "redo" :: _ -> answer (Session.redo t) "redone"
  | "engine" :: _ -> Session.engine_report t
  | "diff" :: _ -> (
    let find_unit (p : Ast.program) =
      List.find_opt
        (fun (u : Ast.program_unit) ->
          String.equal u.Ast.uname (Session.unit_name t))
        p.Ast.punits
    in
    match (find_unit (Session.original t), find_unit (Session.program t)) with
    | Some before, Some after ->
      let lines u =
        Array.of_list (List.map snd (Pretty.source_lines u))
      in
      let d = line_diff (lines before) (lines after) in
      if List.for_all (fun l -> l.[0] = ' ') d then "no changes"
      else
        String.concat "\n"
          (List.filter
             (fun l ->
               (* keep changed lines with one line of nothing else *)
               l.[0] <> ' ')
             d)
    | _ -> "error: focus unit not found")
  | [ "write"; path ] -> (
    try
      let oc = open_out path in
      output_string oc (Pretty.program_to_string (Session.program t));
      close_out oc;
      Printf.sprintf "wrote %s" path
    with Sys_error e -> "error: " ^ e)
  | "estimate" :: rest -> (
    match processors rest with
    | Error e -> e
    | Ok (p, _) ->
      let seq = Perf.Estimator.unit_cost (Session.env t) in
      let speedup = Perf.Estimator.predicted_speedup (Session.env t) ~processors:p in
      Printf.sprintf
        "estimated sequential cycles: %.0f%s\npredicted speedup on %d processors: %.2fx"
        seq.Perf.Estimator.cycles
        (if seq.Perf.Estimator.exact_trips then "" else " (some trip counts assumed)")
        p speedup)
  | "advise" :: _ -> (
    match Advisor.advise t with
    | [] -> "no suggestions: every profitable loop is already parallel"
    | suggestions ->
      String.concat "\n"
        (List.map
           (fun s -> Format.asprintf "%a" Advisor.pp_suggestion s)
           suggestions))
  | "simulate" :: rest -> (
    (* simulate [P] [seq|reverse|shuffle [SEED]] *)
    let parsed =
      match processors rest with
      | Error e -> Error e
      | Ok (p, rest) -> (
        match rest with
        | [] | [ "seq" ] -> Ok (p, Sim.Interp.Seq)
        | [ "reverse" ] -> Ok (p, Sim.Interp.Reverse)
        | [ "shuffle" ] -> Ok (p, Sim.Interp.Shuffled 42)
        | [ "shuffle"; seed ] when int_of_string_opt seed <> None ->
          Ok (p, Sim.Interp.Shuffled (Option.get (int_of_string_opt seed)))
        | w :: _ ->
          Error (Printf.sprintf "error: bad simulate order %s (try help)" w))
    in
    match parsed with
    | Error e -> e
    | Ok (p, order) -> (
      Session.set_sim_order t order;
      match Session.simulate ~processors:p t with
      | Ok (seq, par, output) ->
        let order_note =
          match order with
          | Sim.Interp.Seq -> ""
          | Sim.Interp.Reverse -> ", reverse iteration order"
          | Sim.Interp.Shuffled s ->
            Printf.sprintf ", shuffled iteration order (seed %d)" s
        in
        String.concat "\n"
          ([ Printf.sprintf "sequential: %.0f cycles" seq;
             Printf.sprintf "parallel (%d procs%s): %.0f cycles" p order_note
               par;
             Printf.sprintf "speedup: %.2fx" (seq /. Float.max par 1.0) ]
          @
          if output = [] then []
          else ("output:" :: List.map (fun l -> "  " ^ l) output))
      | Error e -> "error: " ^ e))
  | cmd :: _ -> Printf.sprintf "error: unknown command %s (try help)" cmd

let script t lines =
  List.map (fun line -> Printf.sprintf "ped> %s\n%s" line (run t line)) lines
