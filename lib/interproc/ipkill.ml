open Fortran_front
open Scalar_analysis
module SSet = Set.Make (String)

(* A unit's kills; a unit without an entry kills nothing. *)
type t = SSet.t Propagate.t

(* The kills of a call to [callee] with [actuals], in the caller's
   name space: a formal's kill reaches only a whole-scalar actual
   ([Var v]), a COMMON scalar keeps its name.  [None] when [kills] has
   no entry for the callee or the callee is unknown. *)
let killed cg kills callee actuals =
  match (kills callee, Callgraph.formals_of cg callee) with
  | Some callee_kills, Some formals ->
    Some
      (SSet.fold
         (fun name acc ->
           match List.find_index (String.equal name) formals with
           | Some i -> (
             match List.nth_opt actuals i with
             | Some (Ast.Var v) -> v :: acc
             | _ -> acc)
           | None -> name :: acc)
         callee_kills [])
  | _ -> None

(* Must-defined-so-far forward analysis over the unit CFG.  The
   lattice is sets of variable names under intersection; [None]
   represents "unvisited" (top). *)
let unit_kills (cg : Callgraph.t) (kills : string -> SSet.t option)
    (u : Ast.program_unit) : SSet.t =
  let tbl = Callgraph.symbols cg u in
  let oracle (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Call (callee, actuals) ->
      Option.map
        (fun killed_actuals ->
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
          })
        (killed cg kills callee actuals)
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

(* An empty kill set gets no entry, and [unit_kills] reads a CALL to a
   unit without one as a CALL to an unknown routine. *)
let solve cg find u =
  let k = unit_kills cg find u in
  if SSet.is_empty k then None else Some k

let compute ?base (cg : Callgraph.t) (_modref : Modref.t) : t =
  Propagate.run ?base Propagate.Callees_first ~equal:SSet.equal ~solve:(solve cg) cg

let solved = Propagate.solved

let kills_of t name =
  match Propagate.find t name with
  | Some s -> SSet.elements s
  | None -> []

let translate t ~(site : Callgraph.site) ~tbl =
  ignore tbl;
  killed (Propagate.graph t) (Propagate.find t) site.Callgraph.callee
    site.Callgraph.actuals
  |> Option.fold ~none:[] ~some:(List.sort_uniq String.compare)
