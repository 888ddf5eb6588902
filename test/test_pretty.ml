open Fortran_front
open Util

(* Structural equality of programs, ignoring statement ids, labels and
   locations. *)
let rec stmts_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s1 : Ast.stmt) (s2 : Ast.stmt) ->
         match (s1.Ast.node, s2.Ast.node) with
         | Ast.Assign (l1, r1), Ast.Assign (l2, r2) ->
           Ast.expr_equal l1 l2 && Ast.expr_equal r1 r2
         | Ast.If (b1, e1), Ast.If (b2, e2) ->
           List.length b1 = List.length b2
           && List.for_all2
                (fun (c1, x1) (c2, x2) ->
                  Ast.expr_equal c1 c2 && stmts_equal x1 x2)
                b1 b2
           && stmts_equal e1 e2
         | Ast.Do (h1, x1), Ast.Do (h2, x2) ->
           String.equal h1.Ast.dvar h2.Ast.dvar
           && Ast.expr_equal h1.Ast.lo h2.Ast.lo
           && Ast.expr_equal h1.Ast.hi h2.Ast.hi
           && h1.Ast.parallel = h2.Ast.parallel
           && (match (h1.Ast.step, h2.Ast.step) with
              | None, None -> true
              | Some a, Some b -> Ast.expr_equal a b
              | _ -> false)
           && stmts_equal x1 x2
         | Ast.Call (n1, a1), Ast.Call (n2, a2) ->
           String.equal n1 n2
           && List.length a1 = List.length a2
           && List.for_all2 Ast.expr_equal a1 a2
         | Ast.Goto l1, Ast.Goto l2 -> l1 = l2
         | Ast.Continue, Ast.Continue
         | Ast.Return, Ast.Return
         | Ast.Stop, Ast.Stop -> true
         | Ast.Print a1, Ast.Print a2 ->
           List.length a1 = List.length a2 && List.for_all2 Ast.expr_equal a1 a2
         | _, _ -> false)
       a b

let units_equal (u1 : Ast.program_unit) (u2 : Ast.program_unit) =
  String.equal u1.Ast.uname u2.Ast.uname && stmts_equal u1.Ast.body u2.Ast.body

let roundtrip_unit u =
  let printed = Pretty.unit_to_string u in
  let u2 = parse_unit printed in
  if not (units_equal u u2) then
    Alcotest.failf "round-trip mismatch:\n%s\n--- reparsed ---\n%s" printed
      (Pretty.unit_to_string u2)

let workload_roundtrip (w : Workloads.t) () =
  List.iter roundtrip_unit (Workloads.program w).Ast.punits

(* random expression generator for the print/parse property *)
let gen_expr : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let var = oneofl [ "I"; "J"; "N"; "X2" ] >|= fun v -> Ast.Var v in
  let lit =
    oneof [ (int_range (-99) 99 >|= fun n -> Ast.Int n);
            (int_range 0 9 >|= fun n -> Ast.Real (float_of_int n /. 2.0)) ]
  in
  sized @@ fix (fun self n ->
    if n <= 0 then oneof [ var; lit ]
    else
      oneof
        [
          var; lit;
          (let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Pow ] in
           let* a = self (n / 2) in
           let* b = self (n / 2) in
           return (Ast.Bin (op, a, b)));
          (self (n - 1) >|= fun a -> Ast.Un (Ast.Neg, a));
          (let* a = self (n / 2) in
           let* b = self (n / 2) in
           return (Ast.Index ("A", [ a; b ])));
        ])

(* [e] with each negated positive literal that the printer
   parenthesises made the constant [Int (-n)], the one form the parser
   gives "(-n)".  The printer parenthesises a negation that is an
   operand of [*], [/] or [**], the right operand of [+] or [-], or
   under another minus. *)
let rec canonical ~tight (e : Ast.expr) =
  match e with
  | Ast.Un (Ast.Neg, Ast.Int n) when tight && n > 0 -> Ast.Int (-n)
  | Ast.Un (op, a) -> Ast.Un (op, canonical ~tight:(op = Ast.Neg) a)
  | Ast.Bin (op, a, b) ->
    let left = (match op with Ast.Mul | Ast.Div | Ast.Pow -> true | _ -> false) in
    let right = (match op with Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow -> true | _ -> false) in
    Ast.Bin (op, canonical ~tight:left a, canonical ~tight:right b)
  | Ast.Index (b, args) -> Ast.Index (b, List.map (canonical ~tight:false) args)
  | Ast.Int _ | Ast.Real _ | Ast.Logic _ | Ast.Str _ | Ast.Var _ -> e

let expr_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"pretty/parse round-trip on expressions"
    gen_expr (fun e ->
      let s = Pretty.expr_to_string e in
      match Parser.parse_expr_string s with
      | e2 -> Ast.expr_equal (canonical ~tight:false e) e2
      | exception _ -> false)

let suite =
  List.map
    (fun (w : Workloads.t) ->
      case ("round-trip " ^ w.Workloads.name) (workload_roundtrip w))
    Workloads.all
  @ [
      case "negative literal parenthesized" (fun () ->
          check_string "neg" "A((-1))" (Pretty.expr_to_string (Ast.Index ("A", [ Ast.Int (-1) ]))));
      case "assumed size prints star" (fun () ->
          check_string "star" "A(*)"
            (Pretty.expr_to_string (Ast.Index ("A", [ Ast.Int max_int ]))));
      case "source_lines tags statements" (fun () ->
          let u = parse_body "      X = 1\n      DO I = 1, 3\n        Y = I\n      ENDDO\n" in
          let lines = Pretty.source_lines u in
          let tagged = List.filter (fun (sid, _) -> sid <> None) lines in
          check_int "three tagged statements" 3 (List.length tagged));
      QCheck_alcotest.to_alcotest expr_roundtrip;
    ]
