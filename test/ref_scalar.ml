(* Reference oracles for the scalar analyses: the map-based CFG
   construction that the one-numbering Cfg replaced, the set-based
   reaching definitions, dominator algorithms, constant propagation
   and liveness that the bit-vector, Cooper–Harvey–Kennedy and
   numbered-variable versions in lib/analysis replaced, the per-loop
   variable classification that the bottom-up Varclass walk replaced,
   and the string-set interprocedural Kill solver that the bit-set one
   replaced.  They are slow and plainly correct; the cfg, dataflow,
   varclass and interproc suites check the library against them on
   random programs. *)

open Fortran_front
open Scalar_analysis

module NodeOrd = struct
  type t = Cfg.node

  let compare = Cfg.node_compare
end

module NodeMap = Map.Make (NodeOrd)
module NodeSet = Set.Make (NodeOrd)

(* A CFG as adjacency maps: [order] is every node in reverse postorder
   from [Entry], then the unreachable statements in source order, then
   [Exit] if unreached; [succs] and [preds] are each node's edges. *)
type cfg = {
  order : Cfg.node list;
  succs : Cfg.node list NodeMap.t;
  preds : Cfg.node list NodeMap.t;
}

let cfg_edges m n = match NodeMap.find_opt n m with Some l -> l | None -> []

let cfg_build (u : Ast.program_unit) : cfg =
  let edges = ref [] in
  let add_edge a b = edges := (a, b) :: !edges in
  let labels = Hashtbl.create 16 in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.label with
      | Some l -> if not (Hashtbl.mem labels l) then Hashtbl.add labels l s.Ast.sid
      | None -> ())
    u.Ast.body;
  let label_target l =
    match Hashtbl.find_opt labels l with
    | Some sid -> Cfg.Stmt sid
    | None -> failwith (Printf.sprintf "GOTO to unknown label %d" l)
  in
  let rec wire_seq (stmts : Ast.stmt list) ~(next : Cfg.node) : Cfg.node =
    match stmts with
    | [] -> next
    | s :: rest ->
      let rest_entry = wire_seq rest ~next in
      wire_stmt s ~next:rest_entry
  and wire_stmt (s : Ast.stmt) ~(next : Cfg.node) : Cfg.node =
    let me = Cfg.Stmt s.Ast.sid in
    (match s.Ast.node with
    | Ast.Assign _ | Ast.Call _ | Ast.Continue | Ast.Print _ -> add_edge me next
    | Ast.Goto l -> add_edge me (label_target l)
    | Ast.Return | Ast.Stop -> add_edge me Cfg.Exit
    | Ast.If (branches, els) ->
      List.iter
        (fun (_, body) ->
          let entry = wire_seq body ~next in
          add_edge me entry)
        branches;
      let else_entry = wire_seq els ~next in
      add_edge me else_entry
    | Ast.Do (_, body) ->
      let body_entry = wire_seq body ~next:me in
      add_edge me body_entry;
      add_edge me next);
    me
  in
  let first = wire_seq u.Ast.body ~next:Cfg.Exit in
  add_edge Cfg.Entry first;
  (* adjacency maps, deduplicating parallel edges *)
  let add_adj m a b =
    let cur = cfg_edges !m a in
    if not (List.exists (Cfg.node_equal b) cur) then m := NodeMap.add a (b :: cur) !m
  in
  let succs = ref NodeMap.empty and preds = ref NodeMap.empty in
  List.iter
    (fun (a, b) ->
      add_adj succs a b;
      add_adj preds b a)
    !edges;
  let visited = ref NodeSet.empty in
  let order = ref [] in
  let rec dfs n =
    if not (NodeSet.mem n !visited) then begin
      visited := NodeSet.add n !visited;
      List.iter dfs (cfg_edges !succs n);
      order := n :: !order
    end
  in
  dfs Cfg.Entry;
  let extras = ref [] in
  Ast.iter_stmts
    (fun s ->
      let n = Cfg.Stmt s.Ast.sid in
      if not (NodeSet.mem n !visited) then extras := n :: !extras)
    u.Ast.body;
  let order =
    !order @ List.rev !extras
    @ (if NodeSet.mem Cfg.Exit !visited then [] else [ Cfg.Exit ])
  in
  { order; succs = !succs; preds = !preds }

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
  let transfer i in_set =
    let node = Cfg.node_at cfg i in
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
  let all = NodeSet.of_list (Cfg.nodes cfg) in
  let sets = Hashtbl.create 64 in
  List.iter
    (fun n ->
      Hashtbl.replace sets n
        (if Cfg.node_equal n root then NodeSet.singleton root else all))
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
            | [] -> NodeSet.empty
            | p :: rest ->
              List.fold_left (fun acc q -> NodeSet.inter acc (get q)) (get p) rest
          in
          let next = NodeSet.add n inter in
          if not (NodeSet.equal next (get n)) then begin
            Hashtbl.replace sets n next;
            changed := true
          end
        end)
      order
  done;
  fun n -> Option.value ~default:NodeSet.empty (Hashtbl.find_opt sets n)

let dominators cfg =
  dom_sets cfg ~root:Cfg.Entry ~preds:(Cfg.preds cfg) ~order:(Cfg.nodes cfg)

let postdominators cfg =
  dom_sets cfg ~root:Cfg.Exit ~preds:(Cfg.succs cfg) ~order:(List.rev (Cfg.nodes cfg))

(* The strict dominator that every other strict dominator dominates
   (the greatest such in node order, when several qualify). *)
let idom dom_set n =
  let strict = NodeSet.remove n (dom_set n) in
  NodeSet.fold
    (fun cand acc ->
      if
        NodeSet.for_all
          (fun other ->
            Cfg.node_equal other cand || NodeSet.mem other (dom_set cand))
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
  let transfer i env =
    match Cfg.stmt_of cfg (Cfg.node_at cfg i) with
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

(* Live variables over string sets: a statement's uses are live before
   it, its must-definitions dead, and the escaping variables (formals
   and COMMON, or every variable with [~all_escape]) live at exit. *)
module SSet = Set.Make (String)

let liveness_problem ?(all_escape = false) (ctx : Defuse.ctx) (cfg : Cfg.t) :
    SSet.t Dataflow.problem =
  let escaping =
    List.filter_map
      (fun (i : Symbol.info) ->
        match i.kind with
        | Symbol.Scalar | Symbol.Array _ ->
          if all_escape || i.formal || i.common <> None then Some i.name else None
        | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> None)
      (Symbol.infos (Defuse.table ctx))
  in
  {
    Dataflow.direction = Dataflow.Backward;
    boundary = SSet.of_list escaping;
    init = SSet.empty;
    join = SSet.union;
    equal = SSet.equal;
    transfer =
      (fun i out ->
        match Cfg.stmt_of cfg (Cfg.node_at cfg i) with
        | None -> out
        | Some s ->
          SSet.union
            (SSet.of_list (Defuse.uses ctx s))
            (SSet.diff out (SSet.of_list (Defuse.must_defs ctx s))));
  }

(* With a backward problem the solver's output of a node is its
   live-in and its input its live-out. *)
let live_in result sid = SSet.elements (Dataflow.output result (Cfg.Stmt sid))
let live_out result sid = SSet.elements (Dataflow.input result (Cfg.Stmt sid))

(* Variable classes one loop at a time, the classification the
   bottom-up walk of [Varclass.classify_nest] replaced: every loop
   folds over its whole body for the scalars it mentions and writes,
   composes its region summary, and folds again per reduction
   candidate. *)

exception Unstructured

(* (upward-exposed uses, must-defs) of a region; [Unstructured] on
   GOTO/RETURN/STOP *)
let rec region_summary ctx (stmts : Ast.stmt list) : SSet.t * SSet.t =
  List.fold_left
    (fun (ue, md) s ->
      let s_ue, s_md = stmt_summary ctx s in
      (SSet.union ue (SSet.diff s_ue md), SSet.union md s_md))
    (SSet.empty, SSet.empty) stmts

and stmt_summary ctx (s : Ast.stmt) : SSet.t * SSet.t =
  match s.Ast.node with
  | Ast.Goto _ | Ast.Return | Ast.Stop -> raise Unstructured
  | Ast.If (branches, els) ->
    let cond_uses =
      SSet.of_list (List.concat_map (fun (c, _) -> Ast.expr_vars c) branches)
    in
    let summaries = List.map (region_summary ctx) (List.map snd branches @ [ els ]) in
    let ue = List.fold_left (fun acc (u, _) -> SSet.union acc u) cond_uses summaries in
    let md =
      match summaries with
      | [] -> SSet.empty
      | (_, m) :: rest -> List.fold_left (fun acc (_, m') -> SSet.inter acc m') m rest
    in
    (ue, md)
  | Ast.Do (h, body) ->
    let bound_uses =
      SSet.of_list
        (List.concat_map Ast.expr_vars ([ h.Ast.lo; h.Ast.hi ] @ Option.to_list h.Ast.step))
    in
    let body_ue, _ = region_summary ctx body in
    (* the loop may run zero times: only the induction variable is a
       must-def *)
    (SSet.union bound_uses (SSet.remove h.Ast.dvar body_ue), SSet.singleton h.Ast.dvar)
  | Ast.Assign _ | Ast.Call _ | Ast.Continue | Ast.Print _ ->
    (SSet.of_list (Defuse.uses ctx s), SSet.of_list (Defuse.must_defs ctx s))

(* Is every occurrence of [v] in the body confined to reduction
   statements of a single operation? *)
let reduction_class ctx body v : Varclass.reduction_op option =
  let ops = ref [] in
  let ok =
    Ast.fold_stmts
      (fun acc (s : Ast.stmt) ->
        acc
        &&
        match s.Ast.node with
        | Ast.Assign (Ast.Var v', rhs) when String.equal v v' -> (
          match Varclass.reduction_op_of v rhs with
          | Some op ->
            ops := op :: !ops;
            true
          | None -> false)
        | _ ->
          (not (List.mem v (Defuse.uses ctx s))) && not (List.mem v (Defuse.may_defs ctx s)))
      true body
  in
  if not ok then None else match List.sort_uniq compare !ops with [ op ] -> Some op | _ -> None

let varclass ?(recognize_reductions = true) ~cfg ctx (liveness : Liveness.t)
    (loop : Ast.stmt) : (string * Varclass.classification) list =
  match loop.Ast.node with
  | Ast.Do (h, body) ->
    let tbl = Defuse.table ctx in
    let is_scalar v =
      match Symbol.lookup tbl v with Some { kind = Symbol.Scalar; _ } -> true | _ -> false
    in
    let mentioned =
      Ast.fold_stmts
        (fun acc s -> SSet.union acc (SSet.of_list (Defuse.uses ctx s @ Defuse.may_defs ctx s)))
        (SSet.of_list
           (List.concat_map Ast.expr_vars ([ h.Ast.lo; h.Ast.hi ] @ Option.to_list h.Ast.step)))
        body
      |> SSet.filter is_scalar
    in
    let written =
      Ast.fold_stmts
        (fun acc s -> SSet.union acc (SSet.of_list (Defuse.may_defs ctx s)))
        SSet.empty body
      |> SSet.filter is_scalar
    in
    let auxs = Varclass.aux_inductions ctx loop in
    let structured, ue =
      match region_summary ctx body with
      | ue, _ -> (true, ue)
      | exception Unstructured -> (false, SSet.empty)
    in
    let live_after = Liveness.live_after liveness cfg loop.Ast.sid in
    let classify_var v : Varclass.classification =
      if String.equal v h.Ast.dvar then Induction { stride = None }
      else
        match List.find_opt (fun (a, _, _) -> String.equal a v) auxs with
        | Some (_, c, _) -> Induction { stride = Some (Symbolic.Linear.const c) }
        | None -> (
          if not (SSet.mem v written) then Shared_safe
          else if not structured then Shared_unsafe
          else
            match
              if recognize_reductions then reduction_class ctx body v else None
            with
            | Some op -> Reduction op
            | None ->
              if not (SSet.mem v ue) then Private { needs_last_value = List.mem v live_after }
              else Shared_unsafe)
    in
    List.map (fun v -> (v, classify_var v)) (SSet.elements mentioned)
  | _ -> invalid_arg "Ref_scalar.varclass: not a DO loop"

(* Interprocedural Kill of one unit over string sets: the formal and
   COMMON scalars must-defined on every path to [Exit] and never read
   before, given the callees' kills ([kills], [None] for no entry). *)
let unit_kills (cg : Interproc.Callgraph.t) (kills : string -> SSet.t option)
    (u : Ast.program_unit) : SSet.t =
  let tbl = Interproc.Callgraph.symbols cg u in
  let killed callee actuals =
    match (kills callee, Interproc.Callgraph.formals_of cg callee) with
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
  in
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
        (killed callee actuals)
    | _ -> None
  in
  let ctx = Defuse.make ~oracle tbl u in
  let cfg = Cfg.build u in
  let transfer i (md : SSet.t option) =
    match md with
    | None -> None
    | Some md -> (
      match Cfg.stmt_of cfg (Cfg.node_at cfg i) with
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
      equal = Option.equal SSet.equal;
      transfer;
    }
  in
  let result = Dataflow.solve cfg problem in
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
  SSet.filter (fun v -> candidate v && not (SSet.mem v upward_exposed)) md_exit
