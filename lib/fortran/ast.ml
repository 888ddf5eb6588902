type typ = Tinteger | Treal | Tdouble | Tlogical

type binop =
  | Add | Sub | Mul | Div | Pow
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type unop = Neg | Not

type expr =
  | Int of int
  | Real of float
  | Logic of bool
  | Str of string
  | Var of string
  | Index of string * expr list
  | Bin of binop * expr * expr
  | Un of unop * expr

type stmt_id = int

type do_header = {
  dvar : string;
  lo : expr;
  hi : expr;
  step : expr option;
  parallel : bool;
}

type stmt = { sid : stmt_id; label : int option; loc : Loc.t; node : stmt_node }

and stmt_node =
  | Assign of expr * expr
  | If of (expr * stmt list) list * stmt list
  | Do of do_header * stmt list
  | Call of string * expr list
  | Goto of int
  | Continue
  | Return
  | Stop
  | Print of expr list

type decl = {
  dname : string;
  dtyp : typ;
  dims : (expr * expr) list;
  init : expr option;
  data_init : expr option;
  common_block : string option;
}

type unit_kind =
  | Main
  | Subroutine of string list
  | Function of typ * string list

type program_unit = {
  uname : string;
  kind : unit_kind;
  decls : decl list;
  implicit_none : bool;
  implicits : (typ * (char * char) list) list;
  body : stmt list;
}

type program = { punits : program_unit list }

(* Atomic: the batch/server drivers parse and edit programs from
   several domains at once, and a torn plain-ref increment could hand
   the same id to two statements of one session. *)
let sid_counter = Atomic.make 0

let fresh_sid () = 1 + Atomic.fetch_and_add sid_counter 1

let reset_sids () = Atomic.set sid_counter 0

(* Raise the supply so it never re-issues an id at or below [n]
   (atomic maximum). *)
let ensure_sids_above n =
  let rec go () =
    let cur = Atomic.get sid_counter in
    if cur < n && not (Atomic.compare_and_set sid_counter cur n) then go ()
  in
  go ()

let mk ?label ?(loc = Loc.none) node = { sid = fresh_sid (); label; loc; node }

let rec fold_stmts f acc stmts =
  List.fold_left
    (fun acc s ->
      let acc = f acc s in
      match s.node with
      | If (branches, els) ->
        let acc =
          List.fold_left (fun acc (_, body) -> fold_stmts f acc body) acc branches
        in
        fold_stmts f acc els
      | Do (_, body) -> fold_stmts f acc body
      | Assign _ | Call _ | Goto _ | Continue | Return | Stop | Print _ -> acc)
    acc stmts

let iter_stmts f stmts = fold_stmts (fun () s -> f s) () stmts

let check_labels (u : program_unit) =
  let labels = Hashtbl.create 16 in
  iter_stmts
    (fun s -> Option.iter (fun l -> Hashtbl.replace labels l ()) s.label)
    u.body;
  let dangling =
    fold_stmts
      (fun acc s ->
        match (acc, s.node) with
        | None, Goto l when not (Hashtbl.mem labels l) -> Some (s.loc, l)
        | _ -> acc)
      None u.body
  in
  match dangling with
  | None -> Ok ()
  | Some (loc, l) ->
    Error
      (Printf.sprintf "%s:%d: GOTO %d: no statement labelled %d in unit %s"
         loc.Loc.file loc.Loc.line l l u.uname)

let check_program_labels (p : program) =
  List.fold_left
    (fun acc u -> Result.bind acc (fun () -> check_labels u))
    (Ok ()) p.punits

let entry_unit (p : program) =
  match List.find_opt (fun u -> u.kind = Main) p.punits with
  | Some u -> u
  | None -> (
    match p.punits with u :: _ -> u | [] -> invalid_arg "empty program")

let rec map_stmts f stmts =
  List.map
    (fun s ->
      let node =
        match s.node with
        | If (branches, els) ->
          If
            ( List.map (fun (c, body) -> (c, map_stmts f body)) branches,
              map_stmts f els )
        | Do (h, body) -> Do (h, map_stmts f body)
        | (Assign _ | Call _ | Goto _ | Continue | Return | Stop | Print _) as n
          -> n
      in
      f { s with node })
    stmts

(* Canonical ids: preorder 1..n over the whole program.  Two parses of
   the same source — in this process or another — renumber to
   structurally identical programs, which is what lets fingerprint-
   keyed caches dedup work across sessions.  The global supply is
   raised past n so later edits stay collision-free. *)
let renumber_program (p : program) : program =
  let next = ref 0 in
  let fresh () =
    incr next;
    !next
  in
  let rec stmts ss = List.map stmt ss
  and stmt s =
    let sid = fresh () in
    let node =
      match s.node with
      | If (branches, els) ->
        If (List.map (fun (c, body) -> (c, stmts body)) branches, stmts els)
      | Do (h, body) -> Do (h, stmts body)
      | (Assign _ | Call _ | Goto _ | Continue | Return | Stop | Print _) as n
        -> n
    in
    { s with sid; node }
  in
  let p' = { punits = List.map (fun u -> { u with body = stmts u.body }) p.punits } in
  ensure_sids_above !next;
  p'

let find_stmt sid stmts =
  fold_stmts (fun found s -> if s.sid = sid then Some s else found) None stmts

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Int _ | Real _ | Logic _ | Str _ | Var _ -> acc
  | Index (_, args) -> List.fold_left (fold_expr f) acc args
  | Bin (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Un (_, a) -> fold_expr f acc a

let stmt_exprs = function
  | Assign (lhs, rhs) -> [ lhs; rhs ]
  | If (branches, _) -> List.map fst branches
  | Do (h, _) -> (
    [ h.lo; h.hi ] @ match h.step with Some s -> [ s ] | None -> [])
  | Call (_, args) -> args
  | Print args -> args
  | Goto _ | Continue | Return | Stop -> []

let expr_vars e =
  let acc =
    fold_expr
      (fun acc e ->
        match e with
        | Var v -> v :: acc
        | Index (v, _) -> v :: acc
        | Int _ | Real _ | Logic _ | Str _ | Bin _ | Un _ -> acc)
      [] e
  in
  List.sort_uniq String.compare acc

let rec expr_equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Real x, Real y -> x = y
  | Logic x, Logic y -> x = y
  | Str x, Str y -> String.equal x y
  | Var x, Var y -> String.equal x y
  | Index (x, xs), Index (y, ys) ->
    String.equal x y
    && List.length xs = List.length ys
    && List.for_all2 expr_equal xs ys
  | Bin (op1, a1, b1), Bin (op2, a2, b2) ->
    op1 = op2 && expr_equal a1 a2 && expr_equal b1 b2
  | Un (op1, a1), Un (op2, a2) -> op1 = op2 && expr_equal a1 a2
  | (Int _ | Real _ | Logic _ | Str _ | Var _ | Index _ | Bin _ | Un _), _ ->
    false

let rec subst_var name repl e =
  match e with
  | Var v when String.equal v name -> repl
  | Int _ | Real _ | Logic _ | Str _ | Var _ -> e
  | Index (b, args) -> Index (b, List.map (subst_var name repl) args)
  | Bin (op, a, b) -> Bin (op, subst_var name repl a, subst_var name repl b)
  | Un (op, a) -> Un (op, subst_var name repl a)

let rec rename_in_expr ~old_name ~new_name e =
  let rn = rename_in_expr ~old_name ~new_name in
  match e with
  | Var v when String.equal v old_name -> Var new_name
  | Index (b, args) ->
    let b = if String.equal b old_name then new_name else b in
    Index (b, List.map rn args)
  | Bin (op, a, b) -> Bin (op, rn a, rn b)
  | Un (op, a) -> Un (op, rn a)
  | Int _ | Real _ | Logic _ | Str _ | Var _ -> e

let int_ n = Int n
let var v = Var v
let add a b = Bin (Add, a, b)
let sub a b = Bin (Sub, a, b)
let mul a b = Bin (Mul, a, b)

let rec simplify e =
  match e with
  | Int _ | Real _ | Logic _ | Str _ | Var _ -> e
  | Index (b, args) -> Index (b, List.map simplify args)
  | Un (Neg, a) -> (
    match simplify a with
    | Int n -> Int (-n)
    | Un (Neg, x) -> x
    | a' -> Un (Neg, a'))
  | Un (Not, a) -> (
    match simplify a with Logic b -> Logic (not b) | a' -> Un (Not, a'))
  | Bin (op, a, b) -> (
    let a = simplify a and b = simplify b in
    match (op, a, b) with
    | Add, Int x, Int y -> Int (x + y)
    | Sub, Int x, Int y -> Int (x - y)
    | Mul, Int x, Int y -> Int (x * y)
    | Div, Int x, Int y when y <> 0 && x mod y = 0 -> Int (x / y)
    | Add, x, Int 0 | Add, Int 0, x -> x
    | Sub, x, Int 0 -> x
    | Mul, x, Int 1 | Mul, Int 1, x -> x
    | Mul, _, Int 0 | Mul, Int 0, _ -> Int 0
    | Div, x, Int 1 -> x
    | Sub, x, y when expr_equal x y -> Int 0
    | _, _, _ -> Bin (op, a, b))
