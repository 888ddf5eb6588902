open Fortran_front

type value = Cint of int | Creal of float | Clog of bool

let pp_value ppf = function
  | Cint n -> Format.pp_print_int ppf n
  | Creal f -> Format.pp_print_float ppf f
  | Clog b -> Format.pp_print_string ppf (if b then ".TRUE." else ".FALSE.")

let value_equal a b =
  match (a, b) with
  | Cint x, Cint y -> x = y
  | Creal x, Creal y -> x = y
  | Clog x, Clog y -> x = y
  | (Cint _ | Creal _ | Clog _), _ -> false

type lat = Const of value | Bot

module SMap = Map.Make (String)

(* absent key = Top (optimistically undefined) *)
type env = lat SMap.t

let join_lat a b =
  match (a, b) with
  | Const x, Const y -> if value_equal x y then Const x else Bot
  | Bot, _ | _, Bot -> Bot

let join_env (a : env) (b : env) : env =
  SMap.merge
    (fun _ x y ->
      match (x, y) with
      | Some x, Some y -> Some (join_lat x y)
      | Some x, None | None, Some x -> Some x
      | None, None -> None)
    a b

let equal_env (a : env) (b : env) =
  SMap.equal (fun x y -> match (x, y) with
    | Const u, Const v -> value_equal u v
    | Bot, Bot -> true
    | (Const _ | Bot), _ -> false) a b

let to_float = function
  | Cint n -> float_of_int n
  | Creal f -> f
  | Clog _ -> nan

let arith op a b =
  match (a, b) with
  | Cint x, Cint y -> (
    match op with
    | Ast.Add -> Some (Cint (x + y))
    | Ast.Sub -> Some (Cint (x - y))
    | Ast.Mul -> Some (Cint (x * y))
    | Ast.Div -> if y = 0 then None else Some (Cint (x / y))
    | Ast.Pow ->
      if y >= 0 && y < 31 then
        Some (Cint (int_of_float (Float.round (float_of_int x ** float_of_int y))))
      else None
    | _ -> None)
  | (Cint _ | Creal _), (Cint _ | Creal _) -> (
    let x = to_float a and y = to_float b in
    match op with
    | Ast.Add -> Some (Creal (x +. y))
    | Ast.Sub -> Some (Creal (x -. y))
    | Ast.Mul -> Some (Creal (x *. y))
    | Ast.Div -> if y = 0.0 then None else Some (Creal (x /. y))
    | Ast.Pow -> Some (Creal (x ** y))
    | _ -> None)
  | _ -> None

let relational op a b =
  match (a, b) with
  | Clog _, _ | _, Clog _ -> None
  | _ ->
    let x = to_float a and y = to_float b in
    let r =
      match op with
      | Ast.Lt -> x < y
      | Ast.Le -> x <= y
      | Ast.Gt -> x > y
      | Ast.Ge -> x >= y
      | Ast.Eq -> x = y
      | Ast.Ne -> x <> y
      | _ -> assert false
    in
    Some (Clog r)

let eval_with (lookup : string -> value option) (e : Ast.expr) : value option =
  let rec go e =
    match e with
    | Ast.Int n -> Some (Cint n)
    | Ast.Real f -> Some (Creal f)
    | Ast.Logic b -> Some (Clog b)
    | Ast.Str _ -> None
    | Ast.Var v -> lookup v
    | Ast.Index ("ABS", [ a ]) -> (
      match go a with
      | Some (Cint n) -> Some (Cint (abs n))
      | Some (Creal f) -> Some (Creal (Float.abs f))
      | _ -> None)
    | Ast.Index ("MOD", [ a; b ]) -> (
      match (go a, go b) with
      | Some (Cint x), Some (Cint y) when y <> 0 -> Some (Cint (x mod y))
      | _ -> None)
    | Ast.Index ("MAX", args) | Ast.Index ("MIN", args) -> (
      let is_max = match e with Ast.Index ("MAX", _) -> true | _ -> false in
      let vals = List.map go args in
      if List.for_all Option.is_some vals then
        let vals = List.map Option.get vals in
        if List.for_all (function Cint _ -> true | _ -> false) vals then
          let ints = List.map (function Cint n -> n | _ -> 0) vals in
          Some (Cint (List.fold_left (if is_max then max else min)
                        (List.hd ints) (List.tl ints)))
        else
          let fs = List.map to_float vals in
          Some (Creal (List.fold_left (if is_max then Float.max else Float.min)
                         (List.hd fs) (List.tl fs)))
      else None)
    | Ast.Index _ -> None
    | Ast.Un (Ast.Neg, a) -> (
      match go a with
      | Some (Cint n) -> Some (Cint (-n))
      | Some (Creal f) -> Some (Creal (-.f))
      | _ -> None)
    | Ast.Un (Ast.Not, a) -> (
      match go a with Some (Clog b) -> Some (Clog (not b)) | _ -> None)
    | Ast.Bin (op, a, b) -> (
      match (op, go a, go b) with
      | Ast.And, Some (Clog x), Some (Clog y) -> Some (Clog (x && y))
      | Ast.Or, Some (Clog x), Some (Clog y) -> Some (Clog (x || y))
      | (Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow), Some x, Some y ->
        arith op x y
      | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne), Some x, Some y
        -> relational op x y
      | _ -> None)
  in
  go e

type t = {
  ctx : Defuse.ctx;
  result : env Dataflow.result;
}

let analyze (ctx : Defuse.ctx) (cfg : Cfg.t) : t =
  let tbl = Defuse.table ctx in
  let boundary =
    List.fold_left
      (fun acc (i : Symbol.info) ->
        match i.kind with
        | Symbol.Scalar | Symbol.Array _ ->
          if i.param <> None then
            match Symbol.param_value tbl i.name with
            | Some n -> SMap.add i.name (Const (Cint n)) acc
            | None -> acc
          else if i.formal || i.common <> None then SMap.add i.name Bot acc
          else acc
        | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> acc)
      SMap.empty (Symbol.infos tbl)
  in
  let lookup_in env v =
    match Symbol.param_value tbl v with
    | Some n -> Some (Cint n)
    | None -> (
      match SMap.find_opt v env with
      | Some (Const c) -> Some c
      | Some Bot | None -> None)
  in
  let transfer node (env : env) =
    match node with
    | Cfg.Entry | Cfg.Exit -> env
    | Cfg.Stmt _ -> (
      match Cfg.stmt_of cfg node with
      | None -> env
      | Some s -> (
        match s.Ast.node with
        | Ast.Assign (Ast.Var v, rhs) -> (
          match eval_with (lookup_in env) rhs with
          | Some c -> SMap.add v (Const c) env
          | None -> SMap.add v Bot env)
        | Ast.Do (h, _) ->
          (* the induction variable varies; a proven single-trip loop
             could keep it constant, but Ped treats it as varying *)
          SMap.add h.Ast.dvar Bot env
        | Ast.Assign _ | Ast.Call _ | Ast.If _ | Ast.Goto _ | Ast.Continue
        | Ast.Return | Ast.Stop | Ast.Print _ ->
          List.fold_left
            (fun env v -> SMap.add v Bot env)
            env (Defuse.may_defs ctx s)))
  in
  let problem =
    {
      Dataflow.direction = Dataflow.Forward;
      boundary;
      init = SMap.empty;
      join = join_env;
      equal = equal_env;
      transfer;
    }
  in
  { ctx; result = Dataflow.solve cfg problem }

let env_at t sid = Dataflow.input t.result (Cfg.Stmt sid)

let const_of_var t sid var =
  let tbl = Defuse.table t.ctx in
  match Symbol.param_value tbl var with
  | Some n -> Some (Cint n)
  | None -> (
    match SMap.find_opt var (env_at t sid) with
    | Some (Const c) -> Some c
    | Some Bot | None -> None)

let const_at t sid e = eval_with (fun v -> const_of_var t sid v) e

let int_at t sid e =
  match const_at t sid e with Some (Cint n) -> Some n | _ -> None
