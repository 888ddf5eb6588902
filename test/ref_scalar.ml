(* Reference oracles for the scalar analyses: the set-based reaching
   definitions and dominator algorithms that the bit-vector and
   Cooper–Harvey–Kennedy versions in lib/analysis replaced.  They are
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
