open Fortran_front
open Scalar_analysis
open Util
module L = Symbolic.Linear

let lin s =
  match
    Symbolic.linearize ~resolve:(fun _ -> None) (Parser.parse_expr_string s)
  with
  | Some l -> l
  | None -> Alcotest.failf "%s did not linearize" s

let suite =
  [
    case "linear arithmetic" (fun () ->
        check_bool "2I+J+3" true
          (L.equal (lin "2*I + J + 3")
             { L.const = 3; terms = [ ("I", 2); ("J", 1) ] }));
    case "subtraction cancels" (fun () ->
        check_bool "zero" true (L.is_const (lin "I + N - I - N") = Some 0));
    case "scaling distributes" (fun () ->
        check_bool "3(I+2)" true
          (L.equal (lin "3 * (I + 2)") { L.const = 6; terms = [ ("I", 3) ] }));
    case "exact division" (fun () ->
        check_bool "(2I+4)/2" true
          (L.equal (lin "(2*I + 4) / 2") { L.const = 2; terms = [ ("I", 1) ] }));
    case "inexact division fails" (fun () ->
        check_bool "fails" true
          (Symbolic.linearize ~resolve:(fun _ -> None)
             (Parser.parse_expr_string "(2*I + 3) / 2")
          = None));
    case "product of symbols fails" (fun () ->
        check_bool "fails" true
          (Symbolic.linearize ~resolve:(fun _ -> None)
             (Parser.parse_expr_string "N * I")
          = None));
    case "resolver substitutes" (fun () ->
        let resolve v = if v = "N" then Some (L.const 10) else None in
        match Symbolic.linearize ~resolve (Parser.parse_expr_string "N * I") with
        | Some l -> check_bool "10I" true (L.equal l { L.const = 0; terms = [ ("I", 10) ] })
        | None -> Alcotest.fail "should linearize with N known");
    case "to_expr round trips" (fun () ->
        let l = lin "2*I - 3*J + 7" in
        let e = L.to_expr l in
        match Symbolic.linearize ~resolve:(fun _ -> None) e with
        | Some l2 -> check_bool "same" true (L.equal l l2)
        | None -> Alcotest.fail "to_expr not linear");
    case "split removes one symbol" (fun () ->
        let c, rest = L.split "I" (lin "2*I + J + 3") in
        check_int "coeff" 2 c;
        check_bool "rest" true (L.equal rest { L.const = 3; terms = [ ("J", 1) ] }));
    case "eval computes" (fun () ->
        let v = L.eval (fun s -> if s = "I" then Some 4 else None) (lin "2*I + 1") in
        check_bool "9" true (v = Some 9));
    case "forward substitution resolves temporaries" (fun () ->
        let u =
          parse_body
            "      J1 = J + 1\n      A(J1) = A(J) + 1.0\n"
            ~decls:"      REAL A(100)\n      INTEGER J, J1\n"
        in
        let env = Dependence.Depenv.make (Dependence.Unit_syntax.build u) in
        let sid =
          Ast.fold_stmts
            (fun acc (s : Ast.stmt) ->
              match s.Ast.node with Ast.Assign (Ast.Index _, _) -> Some s.Ast.sid | _ -> acc)
            None u.Ast.body
          |> Option.get
        in
        let e =
          Symbolic.substitute env.Dependence.Depenv.ctx env.Dependence.Depenv.cfg
            env.Dependence.Depenv.reaching sid (Parser.parse_expr_string "J1")
        in
        check_string "substituted" "J + 1" (Pretty.expr_to_string e));
    case "self-referential definitions are not substituted" (fun () ->
        let u =
          parse_body "      DO I = 1, 3\n        K = K + 1\n        A(K) = 0.0\n      ENDDO\n"
            ~decls:"      REAL A(100)\n      INTEGER K\n"
        in
        let env = Dependence.Depenv.make (Dependence.Unit_syntax.build u) in
        let sid =
          Ast.fold_stmts
            (fun acc (s : Ast.stmt) ->
              match s.Ast.node with Ast.Assign (Ast.Index _, _) -> Some s.Ast.sid | _ -> acc)
            None u.Ast.body
          |> Option.get
        in
        let e =
          Symbolic.substitute env.Dependence.Depenv.ctx env.Dependence.Depenv.cfg
            env.Dependence.Depenv.reaching sid (Parser.parse_expr_string "K")
        in
        check_string "unchanged" "K" (Pretty.expr_to_string e));
    case "substitution blocked when operand changes between" (fun () ->
        let u =
          parse_body
            "      J1 = J + 1\n      J = J + 5\n      A(J1) = 0.0\n"
            ~decls:"      REAL A(100)\n      INTEGER J, J1\n"
        in
        let env = Dependence.Depenv.make (Dependence.Unit_syntax.build u) in
        let sid =
          Ast.fold_stmts
            (fun acc (s : Ast.stmt) ->
              match s.Ast.node with Ast.Assign (Ast.Index _, _) -> Some s.Ast.sid | _ -> acc)
            None u.Ast.body
          |> Option.get
        in
        let e =
          Symbolic.substitute env.Dependence.Depenv.ctx env.Dependence.Depenv.cfg
            env.Dependence.Depenv.reaching sid (Parser.parse_expr_string "J1")
        in
        check_string "kept" "J1" (Pretty.expr_to_string e));
    case "invariance check" (fun () ->
        let u =
          parse_body "      DO I = 1, 3\n        K = K + 1\n        X = N\n      ENDDO\n" ~decls:""
        in
        let env = Dependence.Depenv.make (Dependence.Unit_syntax.build u) in
        let lp = loop_by_iv env "I" in
        check_bool "N invariant" true
          (Symbolic.invariant_in env.Dependence.Depenv.ctx lp.Dependence.Loopnest.lstmt "N");
        check_bool "K not invariant" false
          (Symbolic.invariant_in env.Dependence.Depenv.ctx lp.Dependence.Loopnest.lstmt "K");
        check_bool "I not invariant" false
          (Symbolic.invariant_in env.Dependence.Depenv.ctx lp.Dependence.Loopnest.lstmt "I"));
    (* algebraic properties of Linear *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"Linear add/sub inverse"
         QCheck2.Gen.(pair (int_range (-50) 50) (int_range (-50) 50))
         (fun (a, b) ->
           let x = L.add (L.scale a (L.sym "I")) (L.const b) in
           L.equal (L.sub (L.add x x) x) x));
  ]
