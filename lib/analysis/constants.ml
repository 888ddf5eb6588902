open Fortran_front

type value = Cint of int | Creal of float | Clog of bool

let value_equal a b =
  match (a, b) with
  | Cint x, Cint y -> x = y
  | Creal x, Creal y -> x = y
  | Clog x, Clog y -> x = y
  | (Cint _ | Creal _ | Clog _), _ -> false

(* One scalar's lattice value; [Top] is optimistically undefined. *)
type lat = Top | Const of value | Bot

let join_lat a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const x, Const y -> if value_equal x y then a else Bot
  | Bot, _ | _, Bot -> Bot

let lat_equal a b =
  match (a, b) with
  | Const u, Const v -> value_equal u v
  | Top, Top | Bot, Bot -> true
  | (Top | Const _ | Bot), _ -> false

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

(* The unit's variables are numbered once; an environment is an array
   of lattice values by number, never mutated once built, so the solver
   may share it between nodes.  A name without a number has no
   definition the analysis sees and stays [Top]. *)
type env = lat array

(* what a node does to the environment *)
type action =
  | Keep
  | Assign of int * Ast.expr  (* a scalar takes the value of an expression *)
  | Vary of int list  (* these variables become varying *)

type t = {
  tbl : Symbol.table;
  number : (string, int) Hashtbl.t;
  result : env Dataflow.result;
}

let analyze (ctx : Defuse.ctx) (cfg : Cfg.t) : t =
  let tbl = Defuse.table ctx in
  let number = Hashtbl.create 64 and names = ref [] and count = ref 0 in
  let num v =
    match Hashtbl.find_opt number v with
    | Some k -> k
    | None ->
      let k = !count in
      Hashtbl.replace number v k;
      names := v :: !names;
      incr count;
      k
  in
  let vars =
    List.filter
      (fun (i : Symbol.info) ->
        match i.kind with
        | Symbol.Scalar | Symbol.Array _ -> true
        | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> false)
      (Symbol.infos tbl)
  in
  List.iter (fun (i : Symbol.info) -> ignore (num i.name)) vars;
  let actions =
    Array.init (Cfg.size cfg) (fun i ->
        match Cfg.stmt_at cfg i with
        | None -> Keep
        | Some s -> (
          match s.Ast.node with
          | Ast.Assign (Ast.Var v, rhs) -> Assign (num v, rhs)
          | Ast.Do (h, _) ->
            (* the induction variable varies; a proven single-trip loop
               could keep it constant, but Ped treats it as varying *)
            Vary [ num h.Ast.dvar ]
          | Ast.Assign _ | Ast.Call _ | Ast.If _ | Ast.Goto _ | Ast.Continue
          | Ast.Return | Ast.Stop | Ast.Print _ -> (
            match Defuse.may_defs ctx s with
            | [] -> Keep
            | vs -> Vary (List.map num vs))))
  in
  let n = !count in
  let params =
    Array.of_list
      (List.rev_map
         (fun v -> Option.map (fun n -> Cint n) (Symbol.param_value tbl v))
         !names)
  in
  let boundary = Array.make n Top in
  List.iter
    (fun (i : Symbol.info) ->
      let k = Hashtbl.find number i.name in
      if i.param <> None then
        match params.(k) with Some c -> boundary.(k) <- Const c | None -> ()
      else if i.formal || i.common <> None then boundary.(k) <- Bot)
    vars;
  let init = Array.make n Top in
  let lookup_in (env : env) v =
    match Hashtbl.find_opt number v with
    | Some k -> (
      match params.(k) with
      | Some _ as c -> c
      | None -> ( match env.(k) with Const c -> Some c | Top | Bot -> None))
    | None -> Option.map (fun n -> Cint n) (Symbol.param_value tbl v)
  in
  let set (env : env) k x =
    if lat_equal env.(k) x then env
    else
      let env = Array.copy env in
      env.(k) <- x;
      env
  in
  let transfer i (env : env) =
    match actions.(i) with
    | Keep -> env
    | Assign (k, rhs) ->
      set env k
        (match eval_with (lookup_in env) rhs with Some c -> Const c | None -> Bot)
    | Vary ks ->
      if List.for_all (fun k -> lat_equal env.(k) Bot) ks then env
      else
        let env = Array.copy env in
        List.iter (fun k -> env.(k) <- Bot) ks;
        env
  in
  let join (a : env) (b : env) =
    if a == init then b else if b == init then a else Array.map2 join_lat a b
  in
  let equal (a : env) (b : env) =
    let rec from k = k = n || (lat_equal a.(k) b.(k) && from (k + 1)) in
    from 0
  in
  let problem =
    { Dataflow.direction = Dataflow.Forward; boundary; init; join; equal; transfer }
  in
  { tbl; number; result = Dataflow.solve cfg problem }

let const_of_var t sid var =
  match Symbol.param_value t.tbl var with
  | Some n -> Some (Cint n)
  | None -> (
    let env = Dataflow.input t.result (Cfg.Stmt sid) in
    match Hashtbl.find_opt t.number var with
    | Some k -> ( match env.(k) with Const c -> Some c | Top | Bot -> None)
    | None -> None)

let const_at t sid e = eval_with (fun v -> const_of_var t sid v) e

let int_at t sid e =
  match const_at t sid e with Some (Cint n) -> Some n | _ -> None
