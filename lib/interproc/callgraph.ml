open Fortran_front
open Dependence

type site = {
  caller : string;
  callee : string;
  call_sid : Ast.stmt_id;
  actuals : Ast.expr list;
}

(* What the graph keeps of one unit: its syntax record (shared by
   every analysis of the unit) and the call sites in its body. *)
type node = { syntax : Unit_syntax.t; own_sites : site list }

let unit_of n = Unit_syntax.unit_ n.syntax

type t = {
  prog : Ast.program;
  by_name : (string, node) Hashtbl.t;
  all_sites : site list;
  by_caller : (string, site list) Hashtbl.t;
  by_callee : (string, site list) Hashtbl.t;
  components : string list list;
  rebuilt : string list;
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
  | Some n when unit_of n == u -> n
  | _ -> { syntax = Unit_syntax.build u; own_sites = sites_of u }

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

(* Tarjan's algorithm over the units, roots in program order and each
   unit's callees in name order.  Components come out callees first;
   for an acyclic graph each is one unit, in the postorder of that
   depth-first walk.  A component lists its members in the order they
   leave the stack, the unit the walk entered it by last. *)
let tarjan by_name by_caller names =
  let index = Hashtbl.create 64 and low = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] and next = ref 0 and out = ref [] in
  let rec visit v =
    Hashtbl.replace index v !next;
    Hashtbl.replace low v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if Hashtbl.mem by_name w then
          match Hashtbl.find_opt index w with
          | None ->
            visit w;
            Hashtbl.replace low v (min (Hashtbl.find low v) (Hashtbl.find low w))
          | Some i ->
            if Hashtbl.mem on_stack w then
              Hashtbl.replace low v (min (Hashtbl.find low v) i))
      (callees_in by_caller v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if String.equal w v then List.rev (w :: acc) else pop (w :: acc)
        | [] -> List.rev acc
      in
      out := pop [] :: !out
    end
  in
  List.iter
    (fun n -> if Hashtbl.mem by_name n && not (Hashtbl.mem index n) then visit n)
    names;
  List.rev !out

(* The names whose node was not taken from [base]: every unit when
   there is no base. *)
let rebuilt_from base by_name nodes =
  let name n = (unit_of n).Ast.uname in
  match base with
  | None -> List.map name nodes
  | Some b ->
    let fresh =
      List.filter
        (fun n ->
          match Hashtbl.find_opt b.by_name (name n) with
          | Some bn -> bn != n
          | None -> true)
        nodes
    in
    let gone =
      Hashtbl.fold
        (fun n _ acc -> if Hashtbl.mem by_name n then acc else n :: acc)
        b.by_name []
    in
    List.map name fresh @ List.sort String.compare gone

(* The components depend only on the unit names, in order, and on
   each unit's callees: a build that changes neither keeps [base]'s. *)
let components_from base by_name by_caller names rebuilt =
  match base with
  | Some b
    when unit_names_of b.prog = names
         && List.for_all
              (fun n -> callees_in by_caller n = callees_in b.by_caller n)
              rebuilt ->
    b.components
  | _ -> tarjan by_name by_caller names

let build ?base (prog : Ast.program) : t =
  let nodes = List.map (node_of base) prog.Ast.punits in
  let by_name = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace by_name (unit_of n).Ast.uname n) nodes;
  let all_sites = List.concat_map (fun n -> n.own_sites) nodes in
  let by_caller = index (fun s -> s.caller) all_sites in
  let rebuilt = rebuilt_from base by_name nodes in
  {
    prog;
    by_name;
    all_sites;
    by_caller;
    by_callee = index (fun s -> s.callee) all_sites;
    components = components_from base by_name by_caller (unit_names_of prog) rebuilt;
    rebuilt;
  }

let node t name = Hashtbl.find_opt t.by_name name
let unit_named t name = Option.map unit_of (node t name)
let unit_names t = unit_names_of t.prog

let syntax t (u : Ast.program_unit) =
  match node t u.Ast.uname with
  | Some n when unit_of n == u -> n.syntax
  | _ -> Unit_syntax.build u

let symbols t u = Unit_syntax.symbols (syntax t u)
let symbols_named t name = Option.map (fun n -> Unit_syntax.symbols n.syntax) (node t name)
let sites t = t.all_sites
let sites_in t name = find t.by_caller name
let sites_to t name = find t.by_callee name
let callees_of t name = callees_in t.by_caller name

let callers_of t name =
  sites_to t name |> List.map (fun s -> s.caller) |> List.sort_uniq String.compare

let components t = t.components
let bottom_up t = List.concat t.components
let rebuilt t = t.rebuilt

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
