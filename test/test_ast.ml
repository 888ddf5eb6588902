open Fortran_front
open Util

let suite =
  [
    case "fold_stmts visits nested statements" (fun () ->
        let u =
          parse_body
            "      X = 1\n      DO I = 1, 2\n        IF (X .GT. 0) THEN\n          Y = 2\n        ENDIF\n      ENDDO\n"
        in
        let n = Ast.fold_stmts (fun acc _ -> acc + 1) 0 u.Ast.body in
        check_int "statements" 4 n);
    case "map_stmts rewrites bottom-up" (fun () ->
        let u = parse_body "      DO I = 1, 2\n        X = 1\n      ENDDO\n" in
        let body =
          Ast.map_stmts
            (fun s ->
              match s.Ast.node with
              | Ast.Assign (lhs, _) -> { s with Ast.node = Ast.Assign (lhs, Ast.Int 9) }
              | _ -> s)
            u.Ast.body
        in
        match (List.hd body).Ast.node with
        | Ast.Do (_, [ { Ast.node = Ast.Assign (_, Ast.Int 9); _ } ]) -> ()
        | _ -> Alcotest.fail "rewrite did not reach nested stmt");
    case "find_stmt locates nested" (fun () ->
        let u = parse_body "      DO I = 1, 2\n        X = 1\n      ENDDO\n" in
        let inner =
          Ast.fold_stmts
            (fun acc s ->
              match s.Ast.node with Ast.Assign _ -> Some s.Ast.sid | _ -> acc)
            None u.Ast.body
        in
        let sid = Option.get inner in
        check_bool "found" true (Ast.find_stmt sid u.Ast.body <> None));
    case "expr_vars includes index bases and subscripts" (fun () ->
        let e = Parser.parse_expr_string "A(I+1, J) + N" in
        check_string "vars" "A I J N" (String.concat " " (Ast.expr_vars e)));
    case "subst_var replaces only the variable" (fun () ->
        let e = Parser.parse_expr_string "I + A(I)" in
        let e' = Ast.subst_var "I" (Ast.Int 5) e in
        check_string "subst" "5 + A(5)" (Pretty.expr_to_string e'));
    case "rename_in_expr renames index bases too" (fun () ->
        let e = Parser.parse_expr_string "A(I) + A" in
        let e' = Ast.rename_in_expr ~old_name:"A" ~new_name:"B" e in
        check_string "renamed" "B(I) + B" (Pretty.expr_to_string e'));
    case "simplify folds constants" (fun () ->
        let e = Parser.parse_expr_string "2 + 3 * 4" in
        check_bool "folded" true (Ast.expr_equal (Ast.simplify e) (Ast.Int 14)));
    case "simplify drops neutral elements" (fun () ->
        let s e = Pretty.expr_to_string (Ast.simplify (Parser.parse_expr_string e)) in
        check_string "x+0" "X" (s "x + 0");
        check_string "1*x" "X" (s "1 * x");
        check_string "x-x" "0" (s "x - x");
        check_string "0*x" "0" (s "0 * x"));
    case "fresh sids are unique" (fun () ->
        let a = Ast.fresh_sid () and b = Ast.fresh_sid () in
        check_bool "distinct" true (a <> b));
    case "stmt_exprs covers loop bounds" (fun () ->
        let u = parse_body "      DO I = K, N, 2\n      ENDDO\n" in
        match (List.hd u.Ast.body).Ast.node with
        | Ast.Do _ as node ->
          check_int "three exprs" 3 (List.length (Ast.stmt_exprs node))
        | _ -> Alcotest.fail "not a do");
    case "canon: locations are not identity, everything else is" (fun () ->
        let src =
          "      SUBROUTINE S(A, N)\n      IMPLICIT REAL (A-H)\n      REAL A(N)\n\
          \      DO 10 I = 1, N\n        A(I) = 0.0\n   10 CONTINUE\n      END\n"
        in
        let parse_at file =
          List.hd (Ast.renumber_program (Parser.parse_program ~file src)).Ast.punits
        in
        let u = parse_at "a.f" in
        let d = Canon.unit_digest in
        check_string "another path, one digest" (d u) (d (parse_at "b/a.f"));
        let differs what u' = check_bool what false (String.equal (d u) (d u')) in
        let top = List.hd u.Ast.body in
        let with_top s = { u with Ast.body = s :: List.tl u.Ast.body } in
        differs "a statement id" (with_top { top with Ast.sid = top.Ast.sid + 100 });
        differs "a label" (with_top { top with Ast.label = Some 99 });
        (match top.Ast.node with
        | Ast.Do (h, body) ->
          differs "the PARALLEL bit"
            (with_top { top with Ast.node = Ast.Do ({ h with Ast.parallel = true }, body) })
        | _ -> Alcotest.fail "not a do");
        differs "a declaration" { u with Ast.decls = List.tl u.Ast.decls };
        differs "an implicit rule" { u with Ast.implicits = [] };
        differs "the unit kind" { u with Ast.kind = Ast.Subroutine [ "A" ] });
    case "canon: integers are written as string_of_int digits" (fun () ->
        List.iter
          (fun n ->
            let buf = Buffer.create 16 in
            Canon.add_int buf n;
            check_string (string_of_int n) (string_of_int n ^ ";") (Buffer.contents buf))
          [ 0; 7; 10; 42; -1; -10; 123456789; max_int; min_int ]);
  ]
