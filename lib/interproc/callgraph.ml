open Fortran_front

type site = {
  caller : string;
  callee : string;
  call_sid : Ast.stmt_id;
  actuals : Ast.expr list;
}

(* What the graph keeps of one unit: the unit, its symbol table (shared
   by every interprocedural analysis) and the call sites in its body. *)
type node = { unit_ : Ast.program_unit; table : Symbol.table; own_sites : site list }

type t = {
  prog : Ast.program;
  by_name : (string, node) Hashtbl.t;
  all_sites : site list;
  by_caller : (string, site list) Hashtbl.t;
  by_callee : (string, site list) Hashtbl.t;
  order : string list;
}

let sites_of (u : Ast.program_unit) =
  List.rev
    (Ast.fold_stmts
       (fun acc (s : Ast.stmt) ->
         match s.Ast.node with
         | Ast.Call (callee, actuals) ->
           { caller = u.Ast.uname; callee; call_sid = s.Ast.sid; actuals } :: acc
         | _ -> acc)
       [] u.Ast.body)

(* A unit physically shared with the base program keeps its node. *)
let node_of base (u : Ast.program_unit) =
  match Option.bind base (fun b -> Hashtbl.find_opt b.by_name u.Ast.uname) with
  | Some n when n.unit_ == u -> n
  | _ -> { unit_ = u; table = Symbol.build u; own_sites = sites_of u }

(* [key site] -> the sites with that key, in program order *)
let index key sites =
  let idx = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let k = key s in
      Hashtbl.replace idx k (s :: Option.value ~default:[] (Hashtbl.find_opt idx k)))
    (List.rev sites);
  idx

let find idx name = Option.value ~default:[] (Hashtbl.find_opt idx name)

let callees_in by_caller name =
  find by_caller name |> List.map (fun s -> s.callee) |> List.sort_uniq String.compare

let unit_names_of (prog : Ast.program) =
  List.map (fun (u : Ast.program_unit) -> u.Ast.uname) prog.Ast.punits

(* postorder DFS over the call graph from every unit, callees first *)
let postorder by_name by_caller names =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec dfs name =
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.replace visited name ();
      List.iter dfs (callees_in by_caller name);
      if Hashtbl.mem by_name name then order := name :: !order
    end
  in
  List.iter dfs names;
  List.rev !order

let build ?base (prog : Ast.program) : t =
  let nodes = List.map (node_of base) prog.Ast.punits in
  let by_name = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace by_name n.unit_.Ast.uname n) nodes;
  let all_sites = List.concat_map (fun n -> n.own_sites) nodes in
  let by_caller = index (fun s -> s.caller) all_sites in
  {
    prog;
    by_name;
    all_sites;
    by_caller;
    by_callee = index (fun s -> s.callee) all_sites;
    order = postorder by_name by_caller (unit_names_of prog);
  }

let program t = t.prog
let node t name = Hashtbl.find_opt t.by_name name
let unit_named t name = Option.map (fun n -> n.unit_) (node t name)
let unit_names t = unit_names_of t.prog

let symbols t (u : Ast.program_unit) =
  match node t u.Ast.uname with
  | Some n when n.unit_ == u -> n.table
  | _ -> Symbol.build u

let symbols_named t name = Option.map (fun n -> n.table) (node t name)
let sites t = t.all_sites
let sites_in t name = find t.by_caller name
let sites_to t name = find t.by_callee name
let callees_of t name = callees_in t.by_caller name

let callers_of t name =
  sites_to t name |> List.map (fun s -> s.caller) |> List.sort_uniq String.compare

let bottom_up t = t.order

let formals_of t name =
  match unit_named t name with
  | Some u -> (
    match u.Ast.kind with
    | Ast.Main -> Some []
    | Ast.Subroutine fs | Ast.Function (_, fs) -> Some fs)
  | None -> None

let dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph callgraph {\n";
  List.iter
    (fun name -> Buffer.add_string buf (Printf.sprintf "  %S;\n" name))
    (unit_names t);
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "  %S -> %S;\n" s.caller s.callee))
    t.all_sites;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
