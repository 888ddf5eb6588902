exception Error of string * Loc.t

type state = {
  toks : (Token.t * Loc.t) array;
  mutable cur : int;
  (* Set when a labeled DO consumes its terminator statement; outer
     loops sharing the same terminator label test it (see [parse_do]). *)
  mutable last_terminator : int option;
  (* True when the construct just parsed already consumed the newline
     that ends it (labeled DO loops end at their terminator statement,
     which eats its own newline). *)
  mutable newline_done : bool;
}

let peek st = fst st.toks.(st.cur)
let peek_loc st = snd st.toks.(st.cur)

let peek2 st =
  if st.cur + 1 < Array.length st.toks then fst st.toks.(st.cur + 1)
  else Token.EOF

let advance st = if st.cur < Array.length st.toks - 1 then st.cur <- st.cur + 1

let error st msg = raise (Error (msg, peek_loc st))

let expect st tok =
  if Token.equal (peek st) tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (peek st)))

let skip_newlines st =
  while Token.equal (peek st) Token.NEWLINE do advance st done

let expect_newline st =
  match peek st with
  | Token.NEWLINE -> skip_newlines st
  | Token.EOF -> ()
  | t -> error st (Printf.sprintf "expected end of statement, found %s" (Token.to_string t))

let ident st =
  match peek st with
  | Token.IDENT s -> advance st; s
  | t -> error st (Printf.sprintf "expected identifier, found %s" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* A negative integer constant is [Int (-n)].  [Pretty] prints it
   "(-n)", the way it prints a negated literal where the context binds
   tighter than unary minus: parenthesised, an operand of [*], [/] or
   [**], the right operand of [+] or [-], or under another minus.  So
   the parser folds a negated positive literal in exactly those
   places, and only there: elsewhere "-n" stays [Un (Neg, Int n)] and
   prints back as "-n". *)
let literal = function
  | Ast.Un (Ast.Neg, Ast.Int n) when n > 0 -> Ast.Int (-n)
  | e -> e

let rec parse_expr st : Ast.expr = parse_or st

and parse_or st =
  let lhs = parse_and st in
  let rec go lhs =
    match peek st with
    | Token.OR ->
      advance st;
      go (Ast.Bin (Ast.Or, lhs, parse_and st))
    | _ -> lhs
  in
  go lhs

and parse_and st =
  let lhs = parse_not st in
  let rec go lhs =
    match peek st with
    | Token.AND ->
      advance st;
      go (Ast.Bin (Ast.And, lhs, parse_not st))
    | _ -> lhs
  in
  go lhs

and parse_not st =
  match peek st with
  | Token.NOT ->
    advance st;
    Ast.Un (Ast.Not, parse_not st)
  | _ -> parse_rel st

and parse_rel st =
  let lhs = parse_arith st in
  let op =
    match peek st with
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | Token.EQ -> Some Ast.Eq
    | Token.NE -> Some Ast.Ne
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    Ast.Bin (op, lhs, parse_arith st)

and parse_arith st =
  let lhs = parse_term st in
  let rec go lhs =
    match peek st with
    | Token.PLUS ->
      advance st;
      go (Ast.Bin (Ast.Add, lhs, literal (parse_term st)))
    | Token.MINUS ->
      advance st;
      go (Ast.Bin (Ast.Sub, lhs, literal (parse_term st)))
    | _ -> lhs
  in
  go lhs

and parse_term st =
  let lhs = parse_factor st in
  let rec go lhs =
    match peek st with
    | Token.STAR ->
      advance st;
      go (Ast.Bin (Ast.Mul, literal lhs, literal (parse_factor st)))
    | Token.SLASH ->
      advance st;
      go (Ast.Bin (Ast.Div, literal lhs, literal (parse_factor st)))
    | _ -> lhs
  in
  go lhs

(* Unary minus binds looser than ** : -A**2 parses as -(A**2). *)
and parse_factor st =
  match peek st with
  | Token.MINUS ->
    advance st;
    Ast.Un (Ast.Neg, literal (parse_factor st))
  | Token.PLUS ->
    advance st;
    parse_factor st
  | _ -> parse_power st

and parse_power st =
  let base = parse_primary st in
  match peek st with
  | Token.POW ->
    advance st;
    Ast.Bin (Ast.Pow, base, literal (parse_factor st))
  | _ -> base

and parse_primary st =
  match peek st with
  | Token.INT_LIT n -> advance st; Ast.Int n
  | Token.REAL_LIT f -> advance st; Ast.Real f
  | Token.TRUE -> advance st; Ast.Logic true
  | Token.FALSE -> advance st; Ast.Logic false
  | Token.STRING_LIT s -> advance st; Ast.Str s
  | Token.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Token.RPAREN;
    literal e
  | Token.IDENT name -> (
    advance st;
    match peek st with
    | Token.LPAREN ->
      advance st;
      let args = parse_expr_list st in
      expect st Token.RPAREN;
      Ast.Index (name, args)
    | _ -> Ast.Var name)
  | t -> error st (Printf.sprintf "expected expression, found %s" (Token.to_string t))

and parse_expr_list st =
  let e = parse_expr st in
  match peek st with
  | Token.COMMA ->
    advance st;
    e :: parse_expr_list st
  | _ -> [ e ]

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let is_block_end st =
  match peek st with
  | Token.KW (Token.END | Token.ENDDO | Token.ENDIF | Token.ELSE | Token.ELSEIF)
  | Token.EOF ->
    true
  | _ -> false

let rec parse_stmt st : Ast.stmt =
  let loc = peek_loc st in
  let label =
    match peek st with
    | Token.INT_LIT n when Token.equal (peek2 st) Token.NEWLINE = false ->
      advance st;
      Some n
    | _ -> None
  in
  st.newline_done <- false;
  let node = parse_stmt_node st in
  if not st.newline_done then expect_newline st;
  st.newline_done <- false;
  { (Ast.mk ?label ~loc node) with Ast.label }

and parse_stmt_node st : Ast.stmt_node =
  match peek st with
  | Token.KW Token.DO -> advance st; parse_do st ~parallel:false
  | Token.KW Token.DOALL -> advance st; parse_do st ~parallel:true
  | Token.KW Token.IF -> advance st; parse_if st
  | Token.KW Token.CALL ->
    advance st;
    let name = ident st in
    let args =
      match peek st with
      | Token.LPAREN ->
        advance st;
        let args =
          match peek st with Token.RPAREN -> [] | _ -> parse_expr_list st
        in
        expect st Token.RPAREN;
        args
      | _ -> []
    in
    Ast.Call (name, args)
  | Token.KW Token.GOTO ->
    advance st;
    (match peek st with
    | Token.INT_LIT n -> advance st; Ast.Goto n
    | _ -> error st "expected statement label after GOTO")
  | Token.KW Token.CONTINUE -> advance st; Ast.Continue
  | Token.KW Token.RETURN -> advance st; Ast.Return
  | Token.KW Token.STOP -> advance st; Ast.Stop
  | Token.KW Token.PRINT ->
    advance st;
    expect st Token.STAR;
    (match peek st with
    | Token.COMMA ->
      advance st;
      Ast.Print (parse_expr_list st)
    | _ -> Ast.Print [])
  | Token.KW Token.WRITE ->
    advance st;
    expect st Token.LPAREN;
    expect st Token.STAR;
    expect st Token.COMMA;
    expect st Token.STAR;
    expect st Token.RPAREN;
    (match peek st with
    | Token.NEWLINE | Token.EOF -> Ast.Print []
    | _ -> Ast.Print (parse_expr_list st))
  | Token.IDENT _ -> parse_assignment st
  | t -> error st (Printf.sprintf "unexpected token %s" (Token.to_string t))

and parse_assignment st =
  let name = ident st in
  let lhs =
    match peek st with
    | Token.LPAREN ->
      advance st;
      let args = parse_expr_list st in
      expect st Token.RPAREN;
      Ast.Index (name, args)
    | _ -> Ast.Var name
  in
  expect st Token.ASSIGN;
  let rhs = parse_expr st in
  Ast.Assign (lhs, rhs)

and parse_do st ~parallel : Ast.stmt_node =
  (* Either [DO label V = ...] or [DO V = ...] *)
  let terminator =
    match peek st with
    | Token.INT_LIT n -> advance st; Some n
    | _ -> None
  in
  let dvar = ident st in
  expect st Token.ASSIGN;
  let lo = parse_expr st in
  expect st Token.COMMA;
  let hi = parse_expr st in
  let step =
    match peek st with
    | Token.COMMA ->
      advance st;
      Some (parse_expr st)
    | _ -> None
  in
  expect_newline st;
  let header = { Ast.dvar; lo; hi; step; parallel } in
  match terminator with
  | None ->
    (* ENDDO-terminated *)
    let body = parse_block st in
    (match peek st with
    | Token.KW Token.ENDDO ->
      advance st;
      Ast.Do (header, body)
    | _ -> error st "expected ENDDO")
  | Some lbl ->
    (* label-terminated; the terminator statement belongs to the body.
       Nested loops may share the terminator: [last_terminator]
       propagates the consumed label outward. *)
    let body = ref [] in
    let finished = ref false in
    while not !finished do
      if is_block_end st then error st "missing DO terminator label";
      st.last_terminator <- None;
      let s = parse_stmt st in
      body := s :: !body;
      if s.Ast.label = Some lbl || st.last_terminator = Some lbl then begin
        finished := true;
        st.last_terminator <- Some lbl
      end
    done;
    st.newline_done <- true;
    Ast.Do (header, List.rev !body)

and parse_if st : Ast.stmt_node =
  expect st Token.LPAREN;
  let cond = parse_expr st in
  expect st Token.RPAREN;
  match peek st with
  | Token.KW Token.THEN ->
    advance st;
    expect_newline st;
    let then_body = parse_block st in
    let rec branches acc =
      match peek st with
      | Token.KW Token.ELSEIF ->
        advance st;
        expect st Token.LPAREN;
        let c = parse_expr st in
        expect st Token.RPAREN;
        expect st (Token.KW Token.THEN);
        expect_newline st;
        let b = parse_block st in
        branches ((c, b) :: acc)
      | Token.KW Token.ELSE ->
        advance st;
        expect_newline st;
        let els = parse_block st in
        expect st (Token.KW Token.ENDIF);
        (List.rev acc, els)
      | Token.KW Token.ENDIF ->
        advance st;
        (List.rev acc, [])
      | t ->
        error st (Printf.sprintf "expected ELSE/ELSEIF/ENDIF, found %s" (Token.to_string t))
    in
    let brs, els = branches [ (cond, then_body) ] in
    Ast.If (brs, els)
  | _ ->
    (* logical IF: a single statement on the same line *)
    let loc = peek_loc st in
    let node = parse_stmt_node st in
    let s = Ast.mk ~loc node in
    Ast.If ([ (cond, [ s ]) ], [])

and parse_block st : Ast.stmt list =
  skip_newlines st;
  let rec go acc =
    if is_block_end st then List.rev acc
    else begin
      st.last_terminator <- None;
      let s = parse_stmt st in
      go (s :: acc)
    end
  in
  go []

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let parse_dims st : (Ast.expr * Ast.expr) list =
  (* after '(' : dim [, dim]* ')' where dim is [lb:]ub or '*' *)
  let parse_dim () =
    match peek st with
    | Token.STAR ->
      advance st;
      (Ast.Int 1, Ast.Int max_int)
    | _ -> (
      let e1 = parse_expr st in
      match peek st with
      | Token.COLON ->
        advance st;
        let e2 = parse_expr st in
        (e1, e2)
      | _ -> (Ast.Int 1, e1))
  in
  let rec go acc =
    let d = parse_dim () in
    match peek st with
    | Token.COMMA ->
      advance st;
      go (d :: acc)
    | _ -> List.rev (d :: acc)
  in
  let dims = go [] in
  expect st Token.RPAREN;
  dims

let rec parse_decl_entities st typ acc =
  let name = ident st in
  let dims =
    match peek st with
    | Token.LPAREN ->
      advance st;
      parse_dims st
    | _ -> []
  in
  let d =
    { Ast.dname = name; dtyp = typ; dims; init = None; data_init = None;
      common_block = None }
  in
  match peek st with
  | Token.COMMA ->
    advance st;
    parse_decl_entities st typ (d :: acc)
  | _ -> List.rev (d :: acc)

let is_decl_start st =
  match peek st with
  | Token.KW
      ( Token.INTEGER | Token.REAL | Token.DOUBLEPREC | Token.LOGICAL
      | Token.DIMENSION | Token.PARAMETER | Token.COMMON | Token.IMPLICIT
      | Token.EXTERNAL | Token.DATA ) ->
    true
  | _ -> false

(* Parse one declaration line, merging into [decls] (an assoc by name). *)
let parse_decl_line st decls =
  let merge decls (d : Ast.decl) =
    match List.partition (fun (x : Ast.decl) -> x.dname = d.dname) decls with
    | [], rest -> rest @ [ d ]
    | [ old ], rest ->
      let merged =
        {
          old with
          Ast.dtyp = d.dtyp;
          dims = (if d.dims = [] then old.Ast.dims else d.dims);
        }
      in
      rest @ [ merged ]
    | _ :: _ :: _, _ -> assert false
  in
  match peek st with
  | Token.KW Token.IMPLICIT -> assert false (* handled by parse_unit *)
  | Token.KW Token.EXTERNAL ->
    advance st;
    let rec skip () =
      let _ = ident st in
      match peek st with
      | Token.COMMA -> advance st; skip ()
      | _ -> ()
    in
    skip ();
    decls
  | Token.KW Token.DIMENSION ->
    advance st;
    let rec go decls =
      let name = ident st in
      expect st Token.LPAREN;
      let dims = parse_dims st in
      let decls =
        match List.partition (fun (x : Ast.decl) -> x.Ast.dname = name) decls with
        | [ old ], rest -> rest @ [ { old with Ast.dims } ]
        | [], rest ->
          rest
          @ [ { Ast.dname = name; dtyp = Ast.Treal; dims; init = None;
                data_init = None; common_block = None } ]
        | _ -> assert false
      in
      match peek st with
      | Token.COMMA -> advance st; go decls
      | _ -> decls
    in
    go decls
  | Token.KW Token.PARAMETER ->
    advance st;
    expect st Token.LPAREN;
    let rec go decls =
      let name = ident st in
      expect st Token.ASSIGN;
      let v = parse_expr st in
      let decls =
        match List.partition (fun (x : Ast.decl) -> x.Ast.dname = name) decls with
        | [ old ], rest -> rest @ [ { old with Ast.init = Some v } ]
        | [], rest ->
          rest
          @ [ { Ast.dname = name; dtyp = Ast.Tinteger; dims = []; init = Some v;
                data_init = None; common_block = None } ]
        | _ -> assert false
      in
      match peek st with
      | Token.COMMA -> advance st; go decls
      | _ -> decls
    in
    let decls = go decls in
    expect st Token.RPAREN;
    decls
  | Token.KW Token.COMMON ->
    advance st;
    expect st Token.SLASH;
    let block = ident st in
    expect st Token.SLASH;
    let rec go decls =
      let name = ident st in
      let dims =
        match peek st with
        | Token.LPAREN -> advance st; parse_dims st
        | _ -> []
      in
      let decls =
        match List.partition (fun (x : Ast.decl) -> x.Ast.dname = name) decls with
        | [ old ], rest ->
          rest
          @ [ { old with
                Ast.common_block = Some block;
                dims = (if dims = [] then old.Ast.dims else dims) } ]
        | [], rest ->
          rest
          @ [ { Ast.dname = name; dtyp = Ast.Treal; dims; init = None;
                data_init = None; common_block = Some block } ]
        | _ -> assert false
      in
      match peek st with
      | Token.COMMA -> advance st; go decls
      | _ -> decls
    in
    go decls
  | Token.KW Token.DATA ->
    (* DATA name /value/ [, name /value/]* — an initial value, distinct
       from a PARAMETER constant: the variable stays assignable *)
    advance st;
    let parse_data_literal () =
      (* a (possibly signed) literal: an expression parser would eat
         the closing '/' as a division *)
      let neg =
        match peek st with
        | Token.MINUS -> advance st; true
        | _ -> false
      in
      let v =
        match peek st with
        | Token.INT_LIT n -> advance st; Ast.Int n
        | Token.REAL_LIT f -> advance st; Ast.Real f
        | Token.TRUE -> advance st; Ast.Logic true
        | Token.FALSE -> advance st; Ast.Logic false
        | t ->
          error st (Printf.sprintf "expected a literal in DATA, found %s"
                      (Token.to_string t))
      in
      if neg then Ast.Un (Ast.Neg, v) else v
    in
    let rec go decls =
      let name = ident st in
      expect st Token.SLASH;
      let v = parse_data_literal () in
      expect st Token.SLASH;
      let decls =
        match List.partition (fun (x : Ast.decl) -> x.Ast.dname = name) decls with
        | [ old ], rest -> rest @ [ { old with Ast.data_init = Some v } ]
        | [], rest ->
          rest
          @ [ { Ast.dname = name; dtyp = Ast.Treal; dims = []; init = None;
                data_init = Some v; common_block = None } ]
        | _ -> assert false
      in
      match peek st with
      | Token.COMMA -> advance st; go decls
      | _ -> decls
    in
    go decls
  | Token.KW Token.INTEGER ->
    advance st;
    List.fold_left merge decls (parse_decl_entities st Ast.Tinteger [])
  | Token.KW Token.REAL ->
    advance st;
    List.fold_left merge decls (parse_decl_entities st Ast.Treal [])
  | Token.KW Token.DOUBLEPREC ->
    advance st;
    List.fold_left merge decls (parse_decl_entities st Ast.Tdouble [])
  | Token.KW Token.LOGICAL ->
    advance st;
    List.fold_left merge decls (parse_decl_entities st Ast.Tlogical [])
  | t -> error st (Printf.sprintf "unexpected token in declarations: %s" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Program units                                                       *)
(* ------------------------------------------------------------------ *)

let parse_unit st : Ast.program_unit =
  skip_newlines st;
  let kind, uname =
    match peek st with
    | Token.KW Token.PROGRAM ->
      advance st;
      let name = ident st in
      (Ast.Main, name)
    | Token.KW Token.SUBROUTINE ->
      advance st;
      let name = ident st in
      let formals =
        match peek st with
        | Token.LPAREN ->
          advance st;
          let rec go acc =
            match peek st with
            | Token.RPAREN -> advance st; List.rev acc
            | Token.COMMA -> advance st; go acc
            | Token.IDENT s -> advance st; go (s :: acc)
            | t ->
              error st
                (Printf.sprintf "bad formal parameter: %s" (Token.to_string t))
          in
          go []
        | _ -> []
      in
      (Ast.Subroutine formals, name)
    | Token.KW ((Token.INTEGER | Token.REAL | Token.DOUBLEPREC | Token.LOGICAL) as k)
      when Token.equal (peek2 st) (Token.KW Token.FUNCTION) ->
      let typ =
        match k with
        | Token.INTEGER -> Ast.Tinteger
        | Token.REAL -> Ast.Treal
        | Token.DOUBLEPREC -> Ast.Tdouble
        | Token.LOGICAL -> Ast.Tlogical
        | _ -> assert false
      in
      advance st;
      advance st;
      let name = ident st in
      expect st Token.LPAREN;
      let rec go acc =
        match peek st with
        | Token.RPAREN -> advance st; List.rev acc
        | Token.COMMA -> advance st; go acc
        | Token.IDENT s -> advance st; go (s :: acc)
        | t ->
          error st (Printf.sprintf "bad formal parameter: %s" (Token.to_string t))
      in
      (Ast.Function (typ, go []), name)
    | t ->
      error st
        (Printf.sprintf "expected PROGRAM/SUBROUTINE/FUNCTION, found %s"
           (Token.to_string t))
  in
  expect_newline st;
  let implicit_none = ref false in
  let implicits = ref [] in
  let parse_implicit () =
    advance st;
    match peek st with
    | Token.KW Token.NONE ->
      advance st;
      implicit_none := true
    | Token.KW ((Token.INTEGER | Token.REAL | Token.DOUBLEPREC | Token.LOGICAL) as k) ->
      let typ =
        match k with
        | Token.INTEGER -> Ast.Tinteger
        | Token.REAL -> Ast.Treal
        | Token.DOUBLEPREC -> Ast.Tdouble
        | Token.LOGICAL -> Ast.Tlogical
        | _ -> assert false
      in
      advance st;
      expect st Token.LPAREN;
      let letter () =
        match peek st with
        | Token.IDENT s when String.length s = 1 -> advance st; s.[0]
        | t ->
          error st (Printf.sprintf "expected a letter in IMPLICIT, found %s"
                      (Token.to_string t))
      in
      let rec ranges acc =
        let a = letter () in
        let b =
          match peek st with
          | Token.MINUS -> advance st; letter ()
          | _ -> a
        in
        let acc = (a, b) :: acc in
        match peek st with
        | Token.COMMA -> advance st; ranges acc
        | _ -> List.rev acc
      in
      let rs = ranges [] in
      expect st Token.RPAREN;
      implicits := (typ, rs) :: !implicits
    | t ->
      error st
        (Printf.sprintf "expected NONE or a type after IMPLICIT, found %s"
           (Token.to_string t))
  in
  let rec parse_decls decls =
    skip_newlines st;
    if peek st = Token.KW Token.IMPLICIT then begin
      parse_implicit ();
      expect_newline st;
      parse_decls decls
    end
    else if is_decl_start st then begin
      (* A type keyword followed by FUNCTION would be a new unit; that
         cannot appear here because units are split at END. *)
      let decls = parse_decl_line st decls in
      expect_newline st;
      parse_decls decls
    end
    else decls
  in
  let decls = parse_decls [] in
  let body = parse_block st in
  expect st (Token.KW Token.END);
  expect_newline st;
  { Ast.uname; kind; decls; implicit_none = !implicit_none;
    implicits = List.rev !implicits; body }

let parse_program ~file src : Ast.program =
  let toks = Array.of_list (Lexer.tokenize ~file src) in
  let st = { toks; cur = 0; last_terminator = None; newline_done = false } in
  let rec go acc =
    skip_newlines st;
    match peek st with
    | Token.EOF -> List.rev acc
    | _ -> go (parse_unit st :: acc)
  in
  { Ast.punits = go [] }

let parse_expr_string s =
  let toks = Array.of_list (Lexer.tokenize ~file:"<expr>" s) in
  let st = { toks; cur = 0; last_terminator = None; newline_done = false } in
  skip_newlines st;
  let e = parse_expr st in
  skip_newlines st;
  (match peek st with
  | Token.EOF -> ()
  | t -> error st (Printf.sprintf "trailing input after expression: %s" (Token.to_string t)));
  e

let parse_stmts_string ~file s =
  let toks = Array.of_list (Lexer.tokenize ~file s) in
  let st = { toks; cur = 0; last_terminator = None; newline_done = false } in
  let stmts = parse_block st in
  (match peek st with
  | Token.EOF -> ()
  | t -> error st (Printf.sprintf "unexpected %s" (Token.to_string t)));
  stmts

let guard f =
  let at what msg loc =
    Format.asprintf "%s error at %a: %s" what Loc.pp loc msg
  in
  match f () with
  | v -> Ok v
  | exception Error (msg, loc) -> Error (at "syntax" msg loc)
  | exception Lexer.Error (msg, loc) -> Error (at "lexical" msg loc)
