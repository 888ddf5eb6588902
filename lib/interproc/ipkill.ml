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

(* Must-defined-so-far forward analysis over the unit's CFG, on sets
   of the candidates (the formal and COMMON scalars: no other scalar
   is a kill) under intersection; [None] is "unvisited" (top).  An
   unvisited node reads as defining nothing before it, and an
   unreached [Exit] as killing nothing. *)
let unit_kills (cg : Callgraph.t) (kills : string -> SSet.t option)
    (u : Ast.program_unit) : SSet.t =
  let syntax = Callgraph.syntax cg u in
  let tbl = Dependence.Unit_syntax.symbols syntax
  and cfg = Dependence.Unit_syntax.cfg syntax in
  let candidates =
    List.filter_map
      (fun (i : Symbol.info) ->
        match i.kind with
        | Symbol.Scalar when i.formal || i.common <> None -> Some i.name
        | _ -> None)
      (Symbol.infos tbl)
  in
  if candidates = [] then SSet.empty
  else begin
    let nc = List.length candidates and id = Hashtbl.create 16 in
    List.iteri (fun k v -> Hashtbl.replace id v k) candidates;
    let bits_of vs =
      match List.filter_map (Hashtbl.find_opt id) vs with
      | [] -> None
      | ks -> Some (Bits.of_list nc ks)
    in
    (* a CALL with a kill entry must-defines its killed actuals and
       reads its actuals' variables; any other CALL is conservative *)
    let oracle (s : Ast.stmt) =
      match s.Ast.node with
      | Ast.Call (callee, actuals) ->
        Option.map
          (fun ce_kills ->
            { Defuse.ce_mods = []; ce_refs = List.concat_map Ast.expr_vars actuals; ce_kills })
          (killed cg kills callee actuals)
      | _ -> None
    in
    let ctx = Defuse.make ~oracle tbl u in
    (* per node: the candidates it must-defines and those it reads *)
    let facts =
      Array.init (Cfg.size cfg) (fun i ->
          Option.map
            (fun s ->
              let f = Defuse.facts ctx s in
              (bits_of f.Defuse.must_defs, bits_of f.Defuse.uses))
            (Cfg.stmt_at cfg i))
    in
    let result =
      Dataflow.solve cfg
        {
          Dataflow.direction = Dataflow.Forward;
          boundary = Some (Bits.make nc);
          init = None;
          join =
            (fun a b ->
              match (a, b) with
              | None, x | x, None -> x
              | Some x, Some y -> Some (Bits.inter x y));
          equal = Option.equal Bits.equal;
          transfer =
            (fun i md ->
              match (md, facts.(i)) with
              | Some md, Some (Some gen, _) -> Some (Bits.union md gen)
              | _ -> md);
        }
    in
    (* upward-exposed uses: a use not preceded by a must-def on some path *)
    let nothing = Bits.make nc and exposed = Bits.make nc in
    let defined md = Option.value md ~default:nothing in
    Array.iteri
      (fun i f ->
        match f with
        | Some (_, Some use) ->
          Bits.union_diff_into exposed use (defined (Dataflow.input_at result i))
        | _ -> ())
      facts;
    let at_exit = defined (Dataflow.input result Cfg.Exit) in
    List.filteri (fun k _ -> Bits.mem at_exit k && not (Bits.mem exposed k)) candidates
    |> SSet.of_list
  end

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

let translate t ~(site : Callgraph.site) =
  killed (Propagate.graph t) (Propagate.find t) site.Callgraph.callee
    site.Callgraph.actuals
  |> Option.fold ~none:[] ~some:(List.sort_uniq String.compare)
