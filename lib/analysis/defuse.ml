open Fortran_front

type call_effects = {
  ce_mods : string list;
  ce_refs : string list;
  ce_kills : string list;
}

type call_oracle = Ast.stmt -> call_effects option

type ctx = {
  tbl : Symbol.table;
  unit_ : Ast.program_unit;
  oracle : call_oracle;
  commons : string list;
}

let make ?(oracle = fun _ -> None) tbl unit_ =
  let commons =
    List.filter_map
      (fun (i : Symbol.info) -> if i.common <> None then Some i.name else None)
      (Symbol.infos tbl)
  in
  { tbl; unit_; oracle; commons }

let table ctx = ctx.tbl

let uniq l = List.sort_uniq String.compare l

(* Variables read by an expression.  Subscripted names that denote
   function calls contribute their base name only as a "use" of the
   function, which we drop (functions are not data). *)
let rec expr_reads ctx (e : Ast.expr) : string list =
  match e with
  | Ast.Var v -> [ v ]
  | Ast.Index (b, args) ->
    let base = if Symbol.is_fun_call ctx.tbl b then [] else [ b ] in
    base @ List.concat_map (expr_reads ctx) args
  | Ast.Bin (_, a, b) -> expr_reads ctx a @ expr_reads ctx b
  | Ast.Un (_, a) -> expr_reads ctx a
  | Ast.Int _ | Ast.Real _ | Ast.Logic _ | Ast.Str _ -> []

(* Actual arguments of a CALL that a callee could modify: variables and
   array (element) arguments.  Expressions are passed by temporary. *)
let modifiable_actuals ctx args =
  List.filter_map
    (function
      | Ast.Var v -> Some v
      | Ast.Index (b, _) when not (Symbol.is_fun_call ctx.tbl b) -> Some b
      | Ast.Index _ | Ast.Int _ | Ast.Real _ | Ast.Logic _ | Ast.Str _
      | Ast.Bin _ | Ast.Un _ -> None)
    args

let call_effects ctx (s : Ast.stmt) : call_effects =
  match ctx.oracle s with
  | Some eff -> eff
  | None -> (
    match s.Ast.node with
    | Ast.Call (_, args) ->
      let mods = modifiable_actuals ctx args @ ctx.commons in
      let us = List.concat_map (expr_reads ctx) args @ ctx.commons in
      { ce_mods = uniq mods; ce_refs = uniq us; ce_kills = [] }
    | _ -> { ce_mods = []; ce_refs = []; ce_kills = [] })

let may_defs ctx (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Assign (Ast.Var v, _) -> [ v ]
  | Ast.Assign (Ast.Index (b, _), _) -> [ b ]
  | Ast.Assign (_, _) -> []
  | Ast.Do (h, _) -> [ h.Ast.dvar ]
  | Ast.Call _ -> (call_effects ctx s).ce_mods
  | Ast.If _ | Ast.Goto _ | Ast.Continue | Ast.Return | Ast.Stop | Ast.Print _
    -> []

let must_defs ctx (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Assign (Ast.Var v, _) -> [ v ]
  | Ast.Do (h, _) -> [ h.Ast.dvar ]
  | Ast.Call _ -> (call_effects ctx s).ce_kills
  | Ast.Assign _ | Ast.If _ | Ast.Goto _ | Ast.Continue
  | Ast.Return | Ast.Stop | Ast.Print _ -> []

let uses ctx (s : Ast.stmt) =
  let exprs =
    match s.Ast.node with
    | Ast.Assign (Ast.Index (_, idxs), rhs) -> rhs :: idxs
    | Ast.Assign (_, rhs) -> [ rhs ]
    | Ast.If (branches, _) -> List.map fst branches
    | Ast.Do (h, _) -> (
      [ h.Ast.lo; h.Ast.hi ] @ match h.Ast.step with Some e -> [ e ] | None -> [])
    | Ast.Print args -> args
    | Ast.Call _ -> []
    | Ast.Goto _ | Ast.Continue | Ast.Return | Ast.Stop -> []
  in
  let base = List.concat_map (expr_reads ctx) exprs in
  let call_uses =
    match s.Ast.node with
    | Ast.Call _ -> (call_effects ctx s).ce_refs
    | _ -> []
  in
  uniq (base @ call_uses)

type facts = { uses : string list; may_defs : string list; must_defs : string list }

let facts ctx (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Call _ ->
    let e = call_effects ctx s in
    { uses = uniq e.ce_refs; may_defs = e.ce_mods; must_defs = e.ce_kills }
  | _ -> { uses = uses ctx s; may_defs = may_defs ctx s; must_defs = must_defs ctx s }

let is_array ctx name = Symbol.is_array ctx.tbl name

let array_writes ctx (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Assign (Ast.Index (b, idxs), _) when is_array ctx b -> [ (b, idxs) ]
  | _ -> []

(* Array reads inside an expression, including subscripts of writes. *)
let rec expr_array_reads ctx (e : Ast.expr) : (string * Ast.expr list) list =
  match e with
  | Ast.Index (b, args) ->
    let here = if is_array ctx b then [ (b, args) ] else [] in
    here @ List.concat_map (expr_array_reads ctx) args
  | Ast.Bin (_, a, b) -> expr_array_reads ctx a @ expr_array_reads ctx b
  | Ast.Un (_, a) -> expr_array_reads ctx a
  | Ast.Var _ | Ast.Int _ | Ast.Real _ | Ast.Logic _ | Ast.Str _ -> []

let array_reads ctx (s : Ast.stmt) =
  let exprs =
    match s.Ast.node with
    | Ast.Assign (Ast.Index (_, idxs), rhs) -> rhs :: idxs
    | Ast.Assign (_, rhs) -> [ rhs ]
    | Ast.If (branches, _) -> List.map fst branches
    | Ast.Do (h, _) -> (
      [ h.Ast.lo; h.Ast.hi ] @ match h.Ast.step with Some e -> [ e ] | None -> [])
    | Ast.Print args -> args
    | Ast.Call (_, args) ->
      (* array elements passed to a call are reads (and possibly
         writes, which [may_defs] reports at whole-array level) *)
      args
    | Ast.Goto _ | Ast.Continue | Ast.Return | Ast.Stop -> []
  in
  List.concat_map (expr_array_reads ctx) exprs

let scalar_writes ctx s =
  List.filter (fun v -> not (is_array ctx v)) (may_defs ctx s)


let effects_of_call ctx s = call_effects ctx s
