open Fortran_front

(* Sets of variable ids, numbered in name order so a set's elements
   come out sorted. *)
type t = {
  names : string array;
  id : (string, int) Hashtbl.t;
  result : Bits.t Dataflow.result;
}

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
  (* per node: what it reads and what it kills, read once per solve *)
  let n = Cfg.size cfg in
  let effects =
    Array.init n (fun i ->
        match Cfg.stmt_at cfg i with
        | None -> None
        | Some s ->
          let f = Defuse.facts ctx s in
          Some (f.Defuse.uses, f.Defuse.must_defs))
  in
  let names =
    Array.fold_left
      (fun acc e ->
        match e with Some (uses, kills) -> uses @ kills @ acc | None -> acc)
      escaping effects
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let nvars = Array.length names in
  let id = Hashtbl.create (2 * nvars) in
  Array.iteri (fun k v -> Hashtbl.replace id v k) names;
  let bits_of vs = Bits.of_list nvars (List.map (Hashtbl.find id) vs) in
  let gen_kill =
    Array.map
      (Option.map (fun (uses, kills) -> (bits_of uses, bits_of kills)))
      effects
  in
  let transfer i x =
    match gen_kill.(i) with
    | None -> x
    | Some (gen, kill) -> Bits.transfer ~gen ~kill x
  in
  let problem =
    {
      Dataflow.direction = Dataflow.Backward;
      boundary = bits_of escaping;
      init = Bits.make nvars;
      join = Bits.union;
      equal = Bits.equal;
      transfer;
    }
  in
  { names; id; result = Dataflow.solve cfg problem }

let elements t x =
  let acc = ref [] in
  for k = Array.length t.names - 1 downto 0 do
    if Bits.mem x k then acc := t.names.(k) :: !acc
  done;
  !acc

let mem t x v = match Hashtbl.find_opt t.id v with Some k -> Bits.mem x k | None -> false

(* With a backward problem, the solver's "output" of a node is the
   value before the node in execution order (live-in), and its "input"
   is live-out. *)
let live_in t sid = elements t (Dataflow.output t.result (Cfg.Stmt sid))

let live_after t cfg loop_sid =
  match Cfg.stmt_of cfg (Cfg.Stmt loop_sid) with
  | Some { Ast.node = Ast.Do (_, body); _ } ->
    let body_sids =
      Ast.fold_stmts (fun acc s -> s.Ast.sid :: acc) [] body
    in
    Cfg.succs cfg (Cfg.Stmt loop_sid)
    |> List.filter (function
         | Cfg.Stmt s -> not (List.mem s body_sids)
         | Cfg.Exit -> true
         | Cfg.Entry -> false)
    |> List.concat_map (fun n -> elements t (Dataflow.output t.result n))
    |> List.sort_uniq String.compare
  | Some _ | None -> []
let live_out t sid = elements t (Dataflow.input t.result (Cfg.Stmt sid))
let is_live_out t sid v = mem t (Dataflow.input t.result (Cfg.Stmt sid)) v
