open Fortran_front
open Scalar_analysis
module SSet = Set.Make (String)

type summary = { mods : SSet.t; refs : SSet.t }

type t = {
  cg : Callgraph.t;
  summaries : (string, summary) Hashtbl.t;
  local : (unit, summary) Unit_memo.t;  (** call-free effects, per unit *)
}

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

let compute ?base (cg : Callgraph.t) : t =
  let summaries = Hashtbl.create 64 in
  let local = Unit_memo.create () in
  let base = Option.map (fun b -> b.local) base in
  List.iter
    (fun name ->
      match Callgraph.unit_named cg name with
      | Some u ->
        Hashtbl.replace summaries name
          (Unit_memo.find ?base local u () (fun () ->
               local_effects (Callgraph.symbols cg u) u))
      | None -> ())
    (Callgraph.unit_names cg);
  (* propagate call effects to a fixed point *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (site : Callgraph.site) ->
        match
          ( Hashtbl.find_opt summaries site.Callgraph.caller,
            Callgraph.symbols_named cg site.Callgraph.caller )
        with
        | Some caller_sum, Some caller_tbl ->
          let effect_mods, effect_refs =
            match
              ( Hashtbl.find_opt summaries site.Callgraph.callee,
                Callgraph.formals_of cg site.Callgraph.callee )
            with
            | Some callee_sum, Some formals ->
              ( translate_set callee_sum.mods ~formals
                  ~actuals:site.Callgraph.actuals ~tbl:caller_tbl
                  ~for_mods:true,
                translate_set callee_sum.refs ~formals
                  ~actuals:site.Callgraph.actuals ~tbl:caller_tbl
                  ~for_mods:false )
            | _ ->
              (* external callee: worst case *)
              let bases =
                List.filter_map (actual_base caller_tbl) site.Callgraph.actuals
              in
              let commons =
                List.filter_map
                  (fun (i : Symbol.info) ->
                    if i.common <> None then Some i.name else None)
                  (Symbol.infos caller_tbl)
              in
              ( bases @ commons,
                List.concat_map vars_of_actual site.Callgraph.actuals @ commons
              )
          in
          let add_visible set names =
            List.fold_left
              (fun s n -> if visible caller_tbl n then SSet.add n s else s)
              set names
          in
          let next =
            {
              mods = add_visible caller_sum.mods effect_mods;
              refs = add_visible caller_sum.refs effect_refs;
            }
          in
          if
            not
              (SSet.equal next.mods caller_sum.mods
              && SSet.equal next.refs caller_sum.refs)
          then begin
            Hashtbl.replace summaries site.Callgraph.caller next;
            changed := true
          end
        | _ -> ())
      (Callgraph.sites cg)
  done;
  { cg; summaries; local }

let summary_of t name = Hashtbl.find_opt t.summaries name
let recomputed t = Unit_memo.missed t.local

let translate t ~(site : Callgraph.site) ~tbl =
  match
    (summary_of t site.Callgraph.callee, Callgraph.formals_of t.cg site.Callgraph.callee)
  with
  | Some callee_sum, Some formals ->
    let mods =
      translate_set callee_sum.mods ~formals ~actuals:site.Callgraph.actuals
        ~tbl ~for_mods:true
    in
    let refs =
      translate_set callee_sum.refs ~formals ~actuals:site.Callgraph.actuals
        ~tbl ~for_mods:false
    in
    (List.sort_uniq String.compare mods, List.sort_uniq String.compare refs)
  | _ ->
    let bases = List.filter_map (actual_base tbl) site.Callgraph.actuals in
    let commons =
      List.filter_map
        (fun (i : Symbol.info) -> if i.common <> None then Some i.name else None)
        (Symbol.infos tbl)
    in
    ( List.sort_uniq String.compare (bases @ commons),
      List.sort_uniq String.compare
        (List.concat_map vars_of_actual site.Callgraph.actuals @ commons) )
