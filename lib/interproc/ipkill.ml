open Fortran_front
open Scalar_analysis
module SSet = Set.Make (String)

(* What [unit_kills] reads of one callee: its kills so far ([None]
   while unknown) and its formals. *)
type callee_input = string * string list option * string list option

type t = {
  cg : Callgraph.t;
  kills : (string, SSet.t) Hashtbl.t;
  memo : (callee_input list, SSet.t) Unit_memo.t;
}

(* Must-defined-so-far forward analysis over the unit CFG.  The
   lattice is sets of variable names under intersection; [None]
   represents "unvisited" (top). *)
let unit_kills (cg : Callgraph.t) (kills : (string, SSet.t) Hashtbl.t)
    (u : Ast.program_unit) : SSet.t =
  let tbl = Callgraph.symbols cg u in
  let oracle (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Call (callee, actuals) -> (
      match (Hashtbl.find_opt kills callee, Callgraph.formals_of cg callee) with
      | Some callee_kills, Some formals ->
        let killed_actuals =
          SSet.fold
            (fun name acc ->
              match List.find_index (String.equal name) formals with
              | Some i -> (
                match List.nth_opt actuals i with
                | Some (Ast.Var v) -> v :: acc
                | _ -> acc)
              | None -> name :: acc (* COMMON scalar *))
            callee_kills []
        in
        Some
          {
            Defuse.ce_mods =
              (let base =
                 List.filter_map
                   (function
                     | Ast.Var v -> Some v
                     | Ast.Index (b, _) when not (Symbol.is_fun_call tbl b) ->
                       Some b
                     | _ -> None)
                   actuals
               in
               base
               @ List.filter_map
                   (fun (i : Symbol.info) ->
                     if i.common <> None then Some i.name else None)
                   (Symbol.infos tbl));
            ce_refs = List.concat_map Ast.expr_vars actuals;
            ce_kills = killed_actuals;
          }
      | _ -> None)
    | _ -> None
  in
  let ctx = Defuse.make ~oracle tbl u in
  let cfg = Cfg.build u in
  let transfer node (md : SSet.t option) =
    match md with
    | None -> None
    | Some md -> (
      match Cfg.stmt_of cfg node with
      | None -> Some md
      | Some s -> Some (SSet.union md (SSet.of_list (Defuse.must_defs ctx s))))
  in
  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some x, Some y -> Some (SSet.inter x y)
  in
  let problem =
    {
      Dataflow.direction = Dataflow.Forward;
      boundary = Some SSet.empty;
      init = None;
      join;
      equal = (fun a b ->
        match (a, b) with
        | None, None -> true
        | Some x, Some y -> SSet.equal x y
        | _ -> false);
      transfer;
    }
  in
  let result = Dataflow.solve cfg problem in
  (* upward-exposed uses: a use not preceded by a must-def on some path *)
  let upward_exposed =
    List.fold_left
      (fun acc node ->
        match Cfg.stmt_of cfg node with
        | None -> acc
        | Some s ->
          let md =
            match Dataflow.input result node with
            | Some md -> md
            | None -> SSet.empty
          in
          List.fold_left
            (fun acc v -> if SSet.mem v md then acc else SSet.add v acc)
            acc (Defuse.uses ctx s))
      SSet.empty (Cfg.nodes cfg)
  in
  let md_exit =
    match Dataflow.input result Cfg.Exit with
    | Some md -> md
    | None -> SSet.empty
  in
  let candidate v =
    match Symbol.lookup tbl v with
    | Some ({ kind = Symbol.Scalar; _ } as i) -> i.formal || i.common <> None
    | _ -> false
  in
  SSet.filter
    (fun v -> candidate v && not (SSet.mem v upward_exposed))
    md_exit

let inputs cg kills name : callee_input list =
  List.map
    (fun callee ->
      ( callee,
        Option.map SSet.elements (Hashtbl.find_opt kills callee),
        Callgraph.formals_of cg callee ))
    (Callgraph.callees_of cg name)

let compute ?base (cg : Callgraph.t) (_modref : Modref.t) : t =
  let kills = Hashtbl.create 64 in
  let memo = Unit_memo.create () in
  let base = Option.map (fun b -> b.memo) base in
  let units = Callgraph.bottom_up cg in
  (* two bottom-up passes reach a fixed point for acyclic call graphs;
     iterate until stable to be safe *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    List.iter
      (fun name ->
        match Callgraph.unit_named cg name with
        | None -> ()
        | Some u ->
          let k =
            Unit_memo.find ?base memo u (inputs cg kills name) (fun () ->
                unit_kills cg kills u)
          in
          let old = Option.value ~default:SSet.empty (Hashtbl.find_opt kills name) in
          if not (SSet.equal k old) then begin
            Hashtbl.replace kills name k;
            changed := true
          end)
      units
  done;
  { cg; kills; memo }

let recomputed t = Unit_memo.missed t.memo

let kills_of t name =
  match Hashtbl.find_opt t.kills name with
  | Some s -> SSet.elements s
  | None -> []

let translate t ~(site : Callgraph.site) ~tbl =
  ignore tbl;
  match
    (Hashtbl.find_opt t.kills site.Callgraph.callee,
     Callgraph.formals_of t.cg site.Callgraph.callee)
  with
  | Some callee_kills, Some formals ->
    SSet.fold
      (fun name acc ->
        match List.find_index (String.equal name) formals with
        | Some i -> (
          match List.nth_opt site.Callgraph.actuals i with
          | Some (Ast.Var v) -> v :: acc
          | _ -> acc)
        | None -> name :: acc)
      callee_kills []
    |> List.sort_uniq String.compare
  | _ -> []
