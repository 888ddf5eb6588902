open Fortran_front

type node = Entry | Exit | Stmt of Ast.stmt_id

(* Entry < Exit < Stmt, statements by id: the polymorphic order,
   without its runtime type dispatch on every map and set operation. *)
let node_compare (a : node) (b : node) =
  match (a, b) with
  | Stmt x, Stmt y -> Int.compare x y
  | Entry, Entry | Exit, Exit -> 0
  | Entry, _ | Exit, Stmt _ -> -1
  | (Exit | Stmt _), _ -> 1
let node_equal a b = node_compare a b = 0

let pp_node ppf = function
  | Entry -> Format.pp_print_string ppf "entry"
  | Exit -> Format.pp_print_string ppf "exit"
  | Stmt sid -> Format.fprintf ppf "s%d" sid

module NodeOrd = struct
  type t = node

  let compare = node_compare
end

module NodeMap = Map.Make (NodeOrd)
module NodeSet = Set.Make (NodeOrd)

type t = {
  unit_ : Ast.program_unit;
  stmts : (Ast.stmt_id, Ast.stmt) Hashtbl.t;
  order : node list;
  at : node array;  (* [order], by node number *)
  ids : (node, int) Hashtbl.t;  (* inverse of [at] *)
  succ_nodes : node list array;
  pred_nodes : node list array;
  succ_ids : int array array;
  pred_ids : int array array;
}

let index t n = Hashtbl.find_opt t.ids n

let node_at t i = t.at.(i)
let succ_ids t i = t.succ_ids.(i)
let pred_ids t i = t.pred_ids.(i)

let edges_of t a n =
  match index t n with Some i -> a.(i) | None -> []

let succs t n = edges_of t t.succ_nodes n
let preds t n = edges_of t t.pred_nodes n
let nodes t = t.order
let unit_of t = t.unit_

let stmt_of t = function
  | Entry | Exit -> None
  | Stmt sid -> Hashtbl.find_opt t.stmts sid

let size t = Array.length t.at

(* [wire body ~next] returns the entry node(s) of [body] and registers
   edges so that falling off the end of [body] reaches [next]. *)
let build (u : Ast.program_unit) : t =
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
    | Some sid -> Stmt sid
    | None -> failwith (Printf.sprintf "GOTO to unknown label %d" l)
  in
  (* Returns the first node of the statement sequence, given the node
     control reaches after the sequence.  Wires all internal edges. *)
  let rec wire_seq (stmts : Ast.stmt list) ~(next : node) : node =
    match stmts with
    | [] -> next
    | s :: rest ->
      let rest_entry = wire_seq rest ~next in
      wire_stmt s ~next:rest_entry
  and wire_stmt (s : Ast.stmt) ~(next : node) : node =
    let me = Stmt s.Ast.sid in
    (match s.Ast.node with
    | Ast.Assign _ | Ast.Call _ | Ast.Continue | Ast.Print _ -> add_edge me next
    | Ast.Goto l -> add_edge me (label_target l)
    | Ast.Return | Ast.Stop -> add_edge me Exit
    | Ast.If (branches, els) ->
      List.iter
        (fun (_, body) ->
          let entry = wire_seq body ~next in
          add_edge me entry)
        branches;
      let else_entry = wire_seq els ~next in
      add_edge me else_entry
    | Ast.Do (_, body) ->
      (* the DO node evaluates bounds and the trip test: one edge into
         the body, one past the loop (zero-trip); the body's fall-
         through returns to the DO node (back edge) *)
      let body_entry = wire_seq body ~next:me in
      add_edge me body_entry;
      add_edge me next);
    me
  in
  let first = wire_seq u.Ast.body ~next:Exit in
  add_edge Entry first;
  (* collect statement table *)
  let stmts = Hashtbl.create 64 in
  Ast.iter_stmts (fun s -> Hashtbl.replace stmts s.Ast.sid s) u.Ast.body;
  (* build adjacency maps, deduplicating parallel edges *)
  let find_edges m n = match NodeMap.find_opt n m with Some l -> l | None -> [] in
  let add_adj m a b =
    let cur = find_edges !m a in
    if not (List.exists (node_equal b) cur) then m := NodeMap.add a (b :: cur) !m
  in
  let succs = ref NodeMap.empty and preds = ref NodeMap.empty in
  let ensure m n = if not (NodeMap.mem n !m) then m := NodeMap.add n [] !m in
  ensure succs Entry; ensure succs Exit; ensure preds Entry; ensure preds Exit;
  Hashtbl.iter
    (fun sid _ ->
      ensure succs (Stmt sid);
      ensure preds (Stmt sid))
    stmts;
  List.iter
    (fun (a, b) ->
      add_adj succs a b;
      add_adj preds b a)
    !edges;
  (* reverse postorder from Entry *)
  let visited = ref NodeSet.empty in
  let order = ref [] in
  let rec dfs n =
    if not (NodeSet.mem n !visited) then begin
      visited := NodeSet.add n !visited;
      List.iter dfs (find_edges !succs n);
      order := n :: !order
    end
  in
  dfs Entry;
  (* unreachable statements, in source order, then Exit if unreached *)
  let extras = ref [] in
  Ast.iter_stmts
    (fun s ->
      let n = Stmt s.Ast.sid in
      if not (NodeSet.mem n !visited) then extras := n :: !extras)
    u.Ast.body;
  let order =
    !order @ List.rev !extras
    @ (if NodeSet.mem Exit !visited then [] else [ Exit ])
  in
  let at = Array.of_list order in
  let ids = Hashtbl.create (Array.length at) in
  Array.iteri (fun i n -> Hashtbl.replace ids n i) at;
  let adj m = Array.map (find_edges !m) at in
  let succ_nodes = adj succs and pred_nodes = adj preds in
  let to_ids =
    Array.map (fun l -> Array.of_list (List.map (Hashtbl.find ids) l))
  in
  { unit_ = u; stmts; order; at; ids; succ_nodes; pred_nodes;
    succ_ids = to_ids succ_nodes; pred_ids = to_ids pred_nodes }

let dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph cfg {\n";
  List.iter
    (fun n ->
      let name = Format.asprintf "%a" pp_node n in
      let label =
        match stmt_of t n with
        | Some s ->
          String.trim
            (String.concat " " (String.split_on_char '\n' (Pretty.stmt_to_string s)))
        | None -> name
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=%S];\n" name label);
      List.iter
        (fun m ->
          Buffer.add_string buf
            (Printf.sprintf "  %s -> %s;\n" name (Format.asprintf "%a" pp_node m)))
        (succs t n))
    (nodes t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
