open Fortran_front
open Scalar_analysis
module SSet = Set.Make (String)

type summary = { mods : SSet.t; refs : SSet.t }

type t = summary Propagate.t

let visible tbl name =
  (* only formals and COMMON variables are externally visible *)
  match Symbol.lookup tbl name with
  | Some (i : Symbol.info) -> i.formal || i.common <> None
  | None -> false

(* Local may-mod / may-ref of a unit, ignoring calls. *)
let local_effects tbl (u : Ast.program_unit) : summary =
  let ctx = Defuse.make tbl u in
  Ast.fold_stmts
    (fun acc (s : Ast.stmt) ->
      match s.Ast.node with
      | Ast.Call _ -> acc (* handled by propagation *)
      | _ ->
        let mods = List.filter (visible tbl) (Defuse.may_defs ctx s) in
        let refs = List.filter (visible tbl) (Defuse.uses ctx s) in
        {
          mods = SSet.union acc.mods (SSet.of_list mods);
          refs = SSet.union acc.refs (SSet.of_list refs);
        })
    { mods = SSet.empty; refs = SSet.empty }
    u.Ast.body

(* Base of a modifiable actual argument, if any. *)
let actual_base tbl (e : Ast.expr) : string option =
  match e with
  | Ast.Var v -> Some v
  | Ast.Index (b, _) when not (Symbol.is_fun_call tbl b) -> Some b
  | _ -> None

let vars_of_actual (e : Ast.expr) : string list = Ast.expr_vars e

(* Translate a callee-name-space set through a call site. *)
let translate_set (names : SSet.t) ~(formals : string list)
    ~(actuals : Ast.expr list) ~tbl ~for_mods : string list =
  SSet.fold
    (fun name acc ->
      match List.find_index (String.equal name) formals with
      | Some i -> (
        match List.nth_opt actuals i with
        | Some actual ->
          if for_mods then
            match actual_base tbl actual with
            | Some b -> b :: acc
            | None -> acc (* expression argument: a temporary *)
          else vars_of_actual actual @ acc
        | None -> acc)
      | None ->
        (* a COMMON variable: visible in the caller under its own name *)
        name :: acc)
    names []

(* External callee: it may modify and read every modifiable actual
   and every COMMON variable of the caller. *)
let worst_case tbl (actuals : Ast.expr list) =
  let bases = List.filter_map (actual_base tbl) actuals in
  let commons =
    List.filter_map
      (fun (i : Symbol.info) -> if i.common <> None then Some i.name else None)
      (Symbol.infos tbl)
  in
  (bases @ commons, List.concat_map vars_of_actual actuals @ commons)

(* The effect of one call site in the caller's name space: [None] for
   a callee of the caller's own recursive component that has no
   summary yet. *)
let site_effect cg find ~tbl (site : Callgraph.site) =
  match (find site.Callgraph.callee, Callgraph.formals_of cg site.Callgraph.callee) with
  | Some callee_sum, Some formals ->
    let tr names ~for_mods =
      translate_set names ~formals ~actuals:site.Callgraph.actuals ~tbl ~for_mods
    in
    Some (tr callee_sum.mods ~for_mods:true, tr callee_sum.refs ~for_mods:false)
  | None, Some _ -> None
  | _, None -> Some (worst_case tbl site.Callgraph.actuals)

(* A unit's call-free effects, plus each call's visible effects. *)
let solve cg find (u : Ast.program_unit) =
  let tbl = Callgraph.symbols cg u in
  let add_visible set names =
    List.fold_left (fun s n -> if visible tbl n then SSet.add n s else s) set names
  in
  let add_site (acc : summary) site =
    match site_effect cg find ~tbl site with
    | Some (mods, refs) ->
      { mods = add_visible acc.mods mods; refs = add_visible acc.refs refs }
    | None -> acc
  in
  Some
    (List.fold_left add_site (local_effects tbl u)
       (Callgraph.sites_in cg u.Ast.uname))

let equal a b = SSet.equal a.mods b.mods && SSet.equal a.refs b.refs

let compute ?base cg =
  Propagate.run ?base Propagate.Callees_first ~equal ~solve:(solve cg) cg

let summary_of = Propagate.find
let solved = Propagate.solved

(* every unit of the graph has a summary once [compute] returns *)
let translate t ~site ~tbl =
  let mods, refs =
    Option.get (site_effect (Propagate.graph t) (summary_of t) ~tbl site)
  in
  (List.sort_uniq String.compare mods, List.sort_uniq String.compare refs)
