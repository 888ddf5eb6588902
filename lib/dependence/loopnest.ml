open Fortran_front

type loop = {
  lstmt : Ast.stmt;
  header : Ast.do_header;
  depth : int;
  parents : Ast.stmt_id list;
}

type t = {
  all : loop list;                          (* preorder *)
  by_id : (Ast.stmt_id, loop) Hashtbl.t;
  enclosing_of : (Ast.stmt_id, Ast.stmt_id list) Hashtbl.t;
      (* for every statement: enclosing loop ids, outermost first *)
}

let build (u : Ast.program_unit) : t =
  let all = ref [] in
  let by_id = Hashtbl.create 16 in
  let enclosing_of = Hashtbl.create 64 in
  let rec walk parents stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        Hashtbl.replace enclosing_of s.Ast.sid (List.rev parents);
        match s.Ast.node with
        | Ast.Do (h, body) ->
          let lp =
            {
              lstmt = s;
              header = h;
              depth = List.length parents + 1;
              parents = List.rev parents;
            }
          in
          all := lp :: !all;
          Hashtbl.replace by_id s.Ast.sid lp;
          walk (s.Ast.sid :: parents) body
        | Ast.If (branches, els) ->
          List.iter (fun (_, body) -> walk parents body) branches;
          walk parents els
        | Ast.Assign _ | Ast.Call _ | Ast.Goto _ | Ast.Continue | Ast.Return
        | Ast.Stop | Ast.Print _ -> ())
      stmts
  in
  walk [] u.Ast.body;
  { all = List.rev !all; by_id; enclosing_of }

let loops t = t.all
let find t sid = Hashtbl.find_opt t.by_id sid

let enclosing t sid =
  match Hashtbl.find_opt t.enclosing_of sid with
  | None -> []
  | Some ids -> List.filter_map (Hashtbl.find_opt t.by_id) ids

let common t sid1 sid2 =
  let l1 = enclosing t sid1 and l2 = enclosing t sid2 in
  let rec go a b =
    match (a, b) with
    | x :: xs, y :: ys when x.lstmt.Ast.sid = y.lstmt.Ast.sid -> x :: go xs ys
    | _ -> []
  in
  go l1 l2

let body_stmts t sid =
  match find t sid with
  | Some { lstmt = { Ast.node = Ast.Do (_, body); _ }; _ } ->
    List.rev (Ast.fold_stmts (fun acc s -> s :: acc) [] body)
  | Some _ | None -> []

let nested_in t ~inner ~outer =
  List.exists (fun l -> l.lstmt.Ast.sid = outer) (enclosing t inner)

let stmt_in_loop t sid ~loop_sid =
  match Hashtbl.find_opt t.enclosing_of sid with
  | Some ids -> List.mem loop_sid ids
  | None -> false

let max_depth t = List.fold_left (fun m l -> max m l.depth) 0 t.all
