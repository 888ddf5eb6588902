open Fortran_front

type def = { def_at : Cfg.node; def_var : string }

let def_compare a b =
  match Cfg.node_compare a.def_at b.def_at with
  | 0 -> String.compare a.def_var b.def_var
  | c -> c

type t = {
  ctx : Defuse.ctx;
  cfg : Cfg.t;
  defs : def array;  (* by id, ids in [def_compare] order *)
  of_var : (string, int list) Hashtbl.t;  (* ascending ids *)
  result : Bits.t Dataflow.result;  (* sets of definition ids *)
}

let analyze (ctx : Defuse.ctx) (cfg : Cfg.t) : t =
  let all_vars =
    List.filter_map
      (fun (i : Symbol.info) ->
        match i.kind with
        | Symbol.Scalar | Symbol.Array _ -> Some i.name
        | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> None)
      (Symbol.infos (Defuse.table ctx))
  in
  (* per node: the variables it may define and those it kills *)
  let n = Cfg.size cfg in
  let effects =
    Array.init n (fun i ->
        match Cfg.stmt_at cfg i with
        | None -> ([], [])
        | Some s -> (Defuse.may_defs ctx s, Defuse.must_defs ctx s))
  in
  let defs =
    List.map (fun v -> { def_at = Cfg.Entry; def_var = v }) all_vars
    @ List.concat
        (List.init n (fun i ->
             let at = Cfg.node_at cfg i in
             List.map (fun v -> { def_at = at; def_var = v }) (fst effects.(i))))
    |> List.sort_uniq def_compare |> Array.of_list
  in
  let ndefs = Array.length defs in
  let id = Hashtbl.create ndefs and of_var = Hashtbl.create 32 in
  for k = ndefs - 1 downto 0 do
    let d = defs.(k) in
    Hashtbl.replace id (d.def_at, d.def_var) k;
    Hashtbl.replace of_var d.def_var
      (k :: Option.value ~default:[] (Hashtbl.find_opt of_var d.def_var))
  done;
  let bits_of = Bits.of_list ndefs in
  let gen_kill =
    Array.mapi
      (fun i (may, must) ->
        if may = [] && must = [] then None
        else
          let at = Cfg.node_at cfg i in
          let gen = bits_of (List.map (fun v -> Hashtbl.find id (at, v)) may) in
          let kill =
            bits_of
              (List.concat_map
                 (fun v -> Option.value ~default:[] (Hashtbl.find_opt of_var v))
                 must)
          in
          Some (gen, kill))
      effects
  in
  let transfer i x =
    match gen_kill.(i) with
    | None -> x
    | Some (gen, kill) -> Bits.transfer ~gen ~kill x
  in
  let problem =
    {
      Dataflow.direction = Dataflow.Forward;
      boundary =
        bits_of (List.map (fun v -> Hashtbl.find id (Cfg.Entry, v)) all_vars);
      init = Bits.make ndefs;
      join = Bits.union;
      equal = Bits.equal;
      transfer;
    }
  in
  { ctx; cfg; defs; of_var; result = Dataflow.solve cfg problem }

let reaching_in t node =
  let x = Dataflow.input t.result node in
  let acc = ref [] in
  for k = Array.length t.defs - 1 downto 0 do
    if Bits.mem x k then acc := t.defs.(k) :: !acc
  done;
  !acc

let defs_of_use t sid var =
  let x = Dataflow.input t.result (Cfg.Stmt sid) in
  match Hashtbl.find_opt t.of_var var with
  | None -> []
  | Some ids -> List.filter_map (fun k -> if Bits.mem x k then Some t.defs.(k) else None) ids

let unique_def t sid var =
  match
    List.filter_map
      (fun d ->
        match d.def_at with Cfg.Stmt s -> Some s | Cfg.Entry | Cfg.Exit -> None)
      (defs_of_use t sid var)
  with
  | [ s ] ->
    (* only a unique def if no entry def also reaches *)
    if List.exists (fun d -> d.def_at = Cfg.Entry) (defs_of_use t sid var) then
      None
    else Some s
  | _ -> None

let chains t =
  List.concat_map
    (fun node ->
      match Cfg.stmt_of t.cfg node with
      | None -> []
      | Some s ->
        let uses = Defuse.uses t.ctx s in
        List.concat_map
          (fun v ->
            List.map (fun d -> (d, s.Ast.sid)) (defs_of_use t s.Ast.sid v))
          uses)
    (Cfg.nodes t.cfg)
