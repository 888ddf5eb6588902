open Fortran_front
module SSet = Set.Make (String)

type t = { result : SSet.t Dataflow.result }

let analyze ?(all_escape = false) (ctx : Defuse.ctx) (cfg : Cfg.t) : t =
  let tbl = Defuse.table ctx in
  let escaping =
    List.filter_map
      (fun (i : Symbol.info) ->
        match i.kind with
        | Symbol.Scalar | Symbol.Array _ ->
          if all_escape || i.formal || i.common <> None then Some i.name
          else None
        | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> None)
      (Symbol.infos tbl)
  in
  let boundary = SSet.of_list escaping in
  let transfer node out_set =
    match Cfg.stmt_of cfg node with
    | None -> out_set
    | Some s ->
      let defs = SSet.of_list (Defuse.must_defs ctx s) in
      let uses = SSet.of_list (Defuse.uses ctx s) in
      SSet.union uses (SSet.diff out_set defs)
  in
  let problem =
    {
      Dataflow.direction = Dataflow.Backward;
      boundary;
      init = SSet.empty;
      join = SSet.union;
      equal = SSet.equal;
      transfer;
    }
  in
  { result = Dataflow.solve cfg problem }

(* With a backward problem, the solver's "output" of a node is the
   value before the node in execution order (live-in), and its "input"
   is live-out. *)
let live_in t sid = SSet.elements (Dataflow.output t.result (Cfg.Stmt sid))
let live_at_exit t = SSet.elements (Dataflow.output t.result Cfg.Exit)

let live_after t cfg loop_sid =
  match Cfg.stmt_of cfg (Cfg.Stmt loop_sid) with
  | Some { Ast.node = Ast.Do (_, body); _ } ->
    let body_sids =
      Ast.fold_stmts (fun acc s -> s.Ast.sid :: acc) [] body
    in
    Cfg.succs cfg (Cfg.Stmt loop_sid)
    |> List.concat_map (fun n ->
           match n with
           | Cfg.Stmt s when not (List.mem s body_sids) -> live_in t s
           | Cfg.Exit -> live_at_exit t
           | Cfg.Stmt _ | Cfg.Entry -> [])
    |> List.sort_uniq String.compare
  | Some _ | None -> []
let live_out t sid = SSet.elements (Dataflow.input t.result (Cfg.Stmt sid))
let is_live_in t sid v = SSet.mem v (Dataflow.output t.result (Cfg.Stmt sid))
let is_live_out t sid v = SSet.mem v (Dataflow.input t.result (Cfg.Stmt sid))
