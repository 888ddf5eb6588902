open Fortran_front

type node = Entry | Exit | Stmt of Ast.stmt_id

(* Entry < Exit < Stmt, statements by id: the polymorphic order,
   without its runtime type dispatch. *)
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

(* One numbering: node [i] is [Entry] for 0, [Exit] for [exit_], the
   statement [stmts.(i)] otherwise. *)
type t = {
  stmts : Ast.stmt option array;
  exit_ : int;
  number : (Ast.stmt_id, int) Hashtbl.t;  (* statement id -> number *)
  succ_ids : int array array;
  pred_ids : int array array;
}

let size t = Array.length t.stmts
let succ_ids t i = t.succ_ids.(i)
let pred_ids t i = t.pred_ids.(i)

let node_at t i =
  match t.stmts.(i) with
  | Some s -> Stmt s.Ast.sid
  | None -> if i = 0 then Entry else Exit

let index t = function
  | Entry -> Some 0
  | Exit -> Some t.exit_
  | Stmt sid -> Hashtbl.find_opt t.number sid

let stmt_at t i = t.stmts.(i)

let stmt_of t n = Option.bind (index t n) (stmt_at t)

let view t a n =
  match index t n with
  | Some i -> Array.fold_right (fun j acc -> node_at t j :: acc) a.(i) []
  | None -> []

let succs t n = view t t.succ_ids n
let preds t n = view t t.pred_ids n
let nodes t = List.init (size t) (node_at t)

(* Statements are first numbered in source order after [Entry] (0) and
   [Exit] (1); the edges are wired on those numbers, then everything
   is renumbered in reverse postorder from [Entry]. *)
let build (u : Ast.program_unit) : t =
  let src =
    Array.of_list (List.rev (Ast.fold_stmts (fun acc s -> s :: acc) [] u.Ast.body))
  in
  let n = Array.length src + 2 in
  let at_src = Hashtbl.create n and labels = Hashtbl.create 16 in
  Array.iteri
    (fun k (s : Ast.stmt) ->
      Hashtbl.replace at_src s.Ast.sid (k + 2);
      match s.Ast.label with
      | Some l -> if not (Hashtbl.mem labels l) then Hashtbl.add labels l (k + 2)
      | None -> ())
    src;
  let entry = 0 and exit = 1 in
  let id (s : Ast.stmt) = Hashtbl.find at_src s.Ast.sid in
  let edges = ref [] in
  let add_edge a b = edges := (a, b) :: !edges in
  let label_target l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None -> failwith (Printf.sprintf "GOTO to unknown label %d" l)
  in
  (* [wire_seq stmts ~next]: the first node of [stmts], wiring their
     edges so that falling off the end reaches [next] *)
  let rec wire_seq (stmts : Ast.stmt list) ~next =
    match stmts with
    | [] -> next
    | s :: rest -> wire_stmt s ~next:(wire_seq rest ~next)
  and wire_stmt (s : Ast.stmt) ~next =
    let me = id s in
    (match s.Ast.node with
    | Ast.Assign _ | Ast.Call _ | Ast.Continue | Ast.Print _ -> add_edge me next
    | Ast.Goto l -> add_edge me (label_target l)
    | Ast.Return | Ast.Stop -> add_edge me exit
    | Ast.If (branches, els) ->
      List.iter (fun (_, body) -> add_edge me (wire_seq body ~next)) branches;
      add_edge me (wire_seq els ~next)
    | Ast.Do (_, body) ->
      (* the DO node evaluates bounds and the trip test: one edge into
         the body, one past the loop (zero-trip); the body's fall-
         through returns to the DO node (back edge) *)
      add_edge me (wire_seq body ~next:me);
      add_edge me next);
    me
  in
  add_edge entry (wire_seq u.Ast.body ~next:exit);
  (* adjacency without parallel edges: a repeated edge keeps the place
     of its last wiring *)
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if not (List.mem b succ.(a)) then succ.(a) <- b :: succ.(a);
      if not (List.mem a pred.(b)) then pred.(b) <- a :: pred.(b))
    !edges;
  (* reverse postorder from Entry, then the unreachable statements in
     source order, then Exit if unreached *)
  let number = Array.make n (-1) and order = ref [] in
  let rec dfs i =
    if number.(i) < 0 then begin
      number.(i) <- 0;
      List.iter dfs succ.(i);
      order := i :: !order
    end
  in
  dfs entry;
  let unreached = List.filter (fun i -> number.(i) < 0) (List.init (n - 2) (( + ) 2)) in
  let order =
    Array.of_list
      (!order @ unreached @ if number.(exit) < 0 then [ exit ] else [])
  in
  Array.iteri (fun k i -> number.(i) <- k) order;
  let renumber adj =
    Array.map (fun i -> Array.of_list (List.map (Array.get number) adj.(i))) order
  in
  Hashtbl.filter_map_inplace (fun _ i -> Some number.(i)) at_src;
  {
    stmts = Array.map (fun i -> if i < 2 then None else Some src.(i - 2)) order;
    exit_ = number.(exit);
    number = at_src;
    succ_ids = renumber succ;
    pred_ids = renumber pred;
  }

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
