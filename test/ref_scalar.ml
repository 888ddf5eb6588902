(* Reference oracles for the scalar analyses: the set-based reaching
   definitions, dominator algorithms and constant propagation that the
   bit-vector, Cooper–Harvey–Kennedy and numbered-variable versions in
   lib/analysis replaced.  They are
   slow and plainly correct; the dataflow suite checks the library
   against them on random programs. *)

open Fortran_front
open Scalar_analysis

module DefSet = Set.Make (struct
  type t = Reaching.def

  let compare = Reaching.def_compare
end)

(* Reaching definitions over a balanced-tree set of {def_at; def_var}
   records: a strong definition kills every definition of its
   variable, then each may-definition generates one. *)
let reaching_problem (ctx : Defuse.ctx) (cfg : Cfg.t) : DefSet.t Dataflow.problem =
  let all_vars =
    List.filter_map
      (fun (i : Symbol.info) ->
        match i.kind with
        | Symbol.Scalar | Symbol.Array _ -> Some i.name
        | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> None)
      (Symbol.infos (Defuse.table ctx))
  in
  let transfer node in_set =
    match Cfg.stmt_of cfg node with
    | None -> in_set
    | Some s ->
      let kills = Defuse.must_defs ctx s in
      let survivors =
        DefSet.filter (fun d -> not (List.mem d.Reaching.def_var kills)) in_set
      in
      List.fold_left
        (fun acc v -> DefSet.add { Reaching.def_at = node; def_var = v } acc)
        survivors (Defuse.may_defs ctx s)
  in
  {
    Dataflow.direction = Dataflow.Forward;
    boundary =
      DefSet.of_list
        (List.map (fun v -> { Reaching.def_at = Cfg.Entry; def_var = v }) all_vars);
    init = DefSet.empty;
    join = DefSet.union;
    equal = DefSet.equal;
    transfer;
  }

let reaching_in result node = DefSet.elements (Dataflow.input result node)

let chains ctx cfg result =
  List.concat_map
    (fun node ->
      match Cfg.stmt_of cfg node with
      | None -> []
      | Some s ->
        List.concat_map
          (fun v ->
            DefSet.elements (Dataflow.input result node)
            |> List.filter (fun d -> String.equal d.Reaching.def_var v)
            |> List.map (fun d -> (d, s.Ast.sid)))
          (Defuse.uses ctx s))
    (Cfg.nodes cfg)

(* Dominator sets: every node but the root starts at the set of all
   nodes, and [dom n = {n} ∪ ⋂ dom p] over its predecessors is iterated
   until nothing changes. *)
let dom_sets (cfg : Cfg.t) ~root ~preds ~order =
  let all = Cfg.NodeSet.of_list (Cfg.nodes cfg) in
  let sets = Hashtbl.create 64 in
  List.iter
    (fun n ->
      Hashtbl.replace sets n
        (if Cfg.node_equal n root then Cfg.NodeSet.singleton root else all))
    (Cfg.nodes cfg);
  let get n = Option.value ~default:all (Hashtbl.find_opt sets n) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        if not (Cfg.node_equal n root) then begin
          let inter =
            match preds n with
            | [] -> Cfg.NodeSet.empty
            | p :: rest ->
              List.fold_left (fun acc q -> Cfg.NodeSet.inter acc (get q)) (get p) rest
          in
          let next = Cfg.NodeSet.add n inter in
          if not (Cfg.NodeSet.equal next (get n)) then begin
            Hashtbl.replace sets n next;
            changed := true
          end
        end)
      order
  done;
  fun n -> Option.value ~default:Cfg.NodeSet.empty (Hashtbl.find_opt sets n)

let dominators cfg =
  dom_sets cfg ~root:Cfg.Entry ~preds:(Cfg.preds cfg) ~order:(Cfg.nodes cfg)

let postdominators cfg =
  dom_sets cfg ~root:Cfg.Exit ~preds:(Cfg.succs cfg) ~order:(List.rev (Cfg.nodes cfg))

(* The strict dominator that every other strict dominator dominates
   (the greatest such in node order, when several qualify). *)
let idom dom_set n =
  let strict = Cfg.NodeSet.remove n (dom_set n) in
  Cfg.NodeSet.fold
    (fun cand acc ->
      if
        Cfg.NodeSet.for_all
          (fun other ->
            Cfg.node_equal other cand || Cfg.NodeSet.mem other (dom_set cand))
          strict
      then Some cand
      else acc)
    strict None

(* Constant propagation over string-keyed maps, one per node: an absent
   key is unknown (top), PARAMETERs seed the entry, formals and COMMON
   variables enter varying, and every may-definition the transfer
   cannot evaluate makes its variable varying. *)
module SMap = Map.Make (String)

type lat = Const of Constants.value | Bot

let value_equal (a : Constants.value) (b : Constants.value) =
  match (a, b) with
  | Cint x, Cint y -> x = y
  | Creal x, Creal y -> x = y
  | Clog x, Clog y -> x = y
  | (Cint _ | Creal _ | Clog _), _ -> false

let join_lat a b =
  match (a, b) with
  | Const x, Const y -> if value_equal x y then Const x else Bot
  | Bot, _ | _, Bot -> Bot

let constants_problem (ctx : Defuse.ctx) (cfg : Cfg.t) : lat SMap.t Dataflow.problem =
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
    | Some n -> Some (Constants.Cint n)
    | None -> (
      match SMap.find_opt v env with Some (Const c) -> Some c | Some Bot | None -> None)
  in
  let transfer node env =
    match Cfg.stmt_of cfg node with
    | None -> env
    | Some s -> (
      match s.Ast.node with
      | Ast.Assign (Ast.Var v, rhs) -> (
        match Constants.eval_with (lookup_in env) rhs with
        | Some c -> SMap.add v (Const c) env
        | None -> SMap.add v Bot env)
      | Ast.Do (h, _) -> SMap.add h.Ast.dvar Bot env
      | Ast.Assign _ | Ast.Call _ | Ast.If _ | Ast.Goto _ | Ast.Continue
      | Ast.Return | Ast.Stop | Ast.Print _ ->
        List.fold_left (fun env v -> SMap.add v Bot env) env (Defuse.may_defs ctx s))
  in
  {
    Dataflow.direction = Dataflow.Forward;
    boundary;
    init = SMap.empty;
    join =
      SMap.merge (fun _ x y ->
          match (x, y) with
          | Some x, Some y -> Some (join_lat x y)
          | Some x, None | None, Some x -> Some x
          | None, None -> None);
    equal =
      SMap.equal (fun x y ->
          match (x, y) with
          | Const u, Const v -> value_equal u v
          | Bot, Bot -> true
          | (Const _ | Bot), _ -> false);
    transfer;
  }

(* The constant of [var] on entry to statement [sid]. *)
let const_of_var ctx result sid var =
  match Symbol.param_value (Defuse.table ctx) var with
  | Some n -> Some (Constants.Cint n)
  | None -> (
    match SMap.find_opt var (Dataflow.input result (Cfg.Stmt sid)) with
    | Some (Const c) -> Some c
    | Some Bot | None -> None)
