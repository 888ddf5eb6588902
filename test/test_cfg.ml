open Fortran_front
open Scalar_analysis
open Util

let build src = Cfg.build (parse_unit src)

let sid_of_assign cfg var =
  let found = ref None in
  List.iter
    (fun n ->
      match Cfg.stmt_of cfg n with
      | Some { Ast.node = Ast.Assign (Ast.Var v, _); sid; _ } when v = var ->
        found := Some sid
      | _ -> ())
    (Cfg.nodes cfg);
  Option.get !found

let suite =
  [
    case "node_compare orders nodes as Stdlib.compare does" (fun () ->
        let nodes =
          Cfg.[ Entry; Exit; Stmt min_int; Stmt (-1); Stmt 0; Stmt 1; Stmt 7;
                Stmt max_int ]
        in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                check_int
                  (Format.asprintf "%a vs %a" Cfg.pp_node a Cfg.pp_node b)
                  (Stdlib.compare a b) (Cfg.node_compare a b))
              nodes)
          nodes);
    case "straight line chains" (fun () ->
        let cfg = build "      PROGRAM P\n      X = 1\n      Y = 2\n      END\n" in
        let x = Cfg.Stmt (sid_of_assign cfg "X") in
        let y = Cfg.Stmt (sid_of_assign cfg "Y") in
        check_bool "entry->x" true
          (List.exists (Cfg.node_equal x) (Cfg.succs cfg Cfg.Entry));
        check_bool "x->y" true (List.exists (Cfg.node_equal y) (Cfg.succs cfg x));
        check_bool "y->exit" true
          (List.exists (Cfg.node_equal Cfg.Exit) (Cfg.succs cfg y)));
    case "loop has back edge and exit edge" (fun () ->
        let cfg =
          build "      PROGRAM P\n      DO I = 1, 3\n        X = I\n      ENDDO\n      END\n"
        in
        let do_node =
          List.find
            (fun n ->
              match Cfg.stmt_of cfg n with
              | Some { Ast.node = Ast.Do _; _ } -> true
              | _ -> false)
            (Cfg.nodes cfg)
        in
        let body = Cfg.Stmt (sid_of_assign cfg "X") in
        check_bool "do->body" true
          (List.exists (Cfg.node_equal body) (Cfg.succs cfg do_node));
        check_bool "do->exit (zero trip)" true
          (List.exists (Cfg.node_equal Cfg.Exit) (Cfg.succs cfg do_node));
        check_bool "body->do (back edge)" true
          (List.exists (Cfg.node_equal do_node) (Cfg.succs cfg body)));
    case "if has both branch edges" (fun () ->
        let cfg =
          build
            "      PROGRAM P\n      IF (A .GT. 0) THEN\n        X = 1\n      ELSE\n        Y = 2\n      ENDIF\n      END\n"
        in
        let if_node =
          List.find
            (fun n ->
              match Cfg.stmt_of cfg n with
              | Some { Ast.node = Ast.If _; _ } -> true
              | _ -> false)
            (Cfg.nodes cfg)
        in
        check_int "two successors" 2 (List.length (Cfg.succs cfg if_node)));
    case "goto edges to label" (fun () ->
        let cfg =
          build
            "      PROGRAM P\n      GOTO 20\n      X = 1\n 20   Y = 2\n      END\n"
        in
        let y = Cfg.Stmt (sid_of_assign cfg "Y") in
        let goto_node =
          List.find
            (fun n ->
              match Cfg.stmt_of cfg n with
              | Some { Ast.node = Ast.Goto _; _ } -> true
              | _ -> false)
            (Cfg.nodes cfg)
        in
        check_bool "goto->label" true
          (List.exists (Cfg.node_equal y) (Cfg.succs cfg goto_node));
        (* X is unreachable but still a node *)
        let x = Cfg.Stmt (sid_of_assign cfg "X") in
        check_bool "x present" true (List.mem x (Cfg.nodes cfg)));
    case "return edges to exit" (fun () ->
        let cfg = build "      SUBROUTINE S\n      RETURN\n      X = 1\n      END\n" in
        let ret =
          List.find
            (fun n ->
              match Cfg.stmt_of cfg n with
              | Some { Ast.node = Ast.Return; _ } -> true
              | _ -> false)
            (Cfg.nodes cfg)
        in
        check_bool "return->exit" true
          (List.exists (Cfg.node_equal Cfg.Exit) (Cfg.succs cfg ret)));
    case "preds mirror succs" (fun () ->
        let cfg =
          build "      PROGRAM P\n      DO I = 1, 3\n        X = I\n      ENDDO\n      END\n"
        in
        List.iter
          (fun n ->
            List.iter
              (fun m ->
                check_bool "mirror" true
                  (List.exists (Cfg.node_equal n) (Cfg.preds cfg m)))
              (Cfg.succs cfg n))
          (Cfg.nodes cfg));
    case "reverse postorder starts at entry" (fun () ->
        let cfg = build "      PROGRAM P\n      X = 1\n      END\n" in
        check_bool "entry first" true
          (Cfg.node_equal (List.hd (Cfg.nodes cfg)) Cfg.Entry));
    case "dot output mentions all statements" (fun () ->
        let cfg = build "      PROGRAM P\n      X = 1\n      END\n" in
        let dot = Cfg.dot cfg in
        check_bool "has X" true (contains ~needle:"X = 1" dot));
  ]

(* The first disagreement between the numbered CFG of a unit and the
   map-based reference build: the node order, each node's successors
   and predecessors in order, and each number's node and statement. *)
let reference_mismatch (u : Ast.program_unit) =
  let cfg = Cfg.build u and r = Ref_scalar.cfg_build u in
  let nodes = Cfg.nodes cfg in
  let stmts = Hashtbl.create 64 in
  Ast.iter_stmts (fun s -> Hashtbl.replace stmts s.Ast.sid s) u.Ast.body;
  let str n = Format.asprintf "%a" Cfg.pp_node n in
  let edges_differ what got want n =
    if List.equal Cfg.node_equal got (Ref_scalar.cfg_edges want n) then None
    else Some (Printf.sprintf "%s: %s of %s" u.Ast.uname what (str n))
  in
  if not (List.equal Cfg.node_equal nodes r.Ref_scalar.order) then
    Some (u.Ast.uname ^ ": node order")
  else
    List.find_map
      (fun (i, n) ->
        let stmt_ok =
          match (n, Cfg.stmt_at cfg i) with
          | Cfg.Stmt sid, Some s -> (
            match Hashtbl.find_opt stmts sid with Some s' -> s' == s | None -> false)
          | (Cfg.Entry | Cfg.Exit), None -> true
          | _ -> false
        in
        if Cfg.index cfg n <> Some i || not stmt_ok then
          Some (Printf.sprintf "%s: number %d is not %s" u.Ast.uname i (str n))
        else
          match edges_differ "successors" (Cfg.succs cfg n) r.Ref_scalar.succs n with
          | Some _ as d -> d
          | None -> edges_differ "predecessors" (Cfg.preds cfg n) r.Ref_scalar.preds n)
      (List.mapi (fun i n -> (i, n)) nodes)

let matches_reference_programs () =
  List.iter
    (fun (name, (prog : Ast.program)) ->
      List.iter
        (fun u ->
          Option.iter (Alcotest.failf "%s: the CFG differs from the reference: %s" name)
            (reference_mismatch u))
        prog.Ast.punits)
    (Test_dataflow.scalar_programs ())

let matches_reference =
  QCheck2.Test.make ~count:60 ~name:"the numbered CFG equals the map-based reference"
    ~print:Pretty.program_to_string Test_dataflow.gen_goto_program (fun p ->
      List.for_all
        (fun u ->
          match reference_mismatch u with
          | None -> true
          | Some what -> QCheck2.Test.fail_reportf "CFG differs: %s" what)
        p.Ast.punits)

let suite =
  suite
  @ [
      case "the numbered CFG equals the reference on the programs"
        matches_reference_programs;
      qcheck_case matches_reference;
    ]
