open Fortran_front
open Dependence

type t = {
  env : Depenv.t;
  ddg : Ddg.t;
  marking : Marking.t;
  user_private : (Ast.stmt_id * string) list;
  statuses : (int, Marking.status) Hashtbl.t;
  by_carrier : (Ast.stmt_id, Ddg.dep list) Hashtbl.t Lazy.t;
  blocking : (Ast.stmt_id, Ddg.dep list) Hashtbl.t;
  parallelizable : (Ast.stmt_id, bool) Hashtbl.t;
}

let make ~env ~ddg ~marking ~user_private =
  let by_carrier =
    lazy
      (let groups = Hashtbl.create 64 in
       List.iter
         (fun (d : Ddg.dep) ->
           Option.iter
             (fun sid ->
               Hashtbl.replace groups sid
                 (d :: Option.value ~default:[] (Hashtbl.find_opt groups sid)))
             d.Ddg.carrier)
         (List.rev ddg.Ddg.deps);
       groups)
  in
  {
    env;
    ddg;
    marking;
    user_private;
    statuses = Hashtbl.create 64;
    by_carrier;
    blocking = Hashtbl.create 16;
    parallelizable = Hashtbl.create 16;
  }

let built_from v ~env ~ddg ~marking ~user_private =
  v.env == env && v.ddg == ddg && v.marking == marking
  && v.user_private == user_private

let memo table key compute =
  match Hashtbl.find_opt table key with
  | Some x -> x
  | None ->
    let x = compute () in
    Hashtbl.replace table key x;
    x

let status v (d : Ddg.dep) =
  if Marking.is_empty v.marking then Marking.unmarked d
  else memo v.statuses d.Ddg.dep_id (fun () -> Marking.status_of v.marking d)

let carried v sid =
  Option.value ~default:[] (Hashtbl.find_opt (Lazy.force v.by_carrier) sid)

let rejected_in v sid =
  List.filter_map
    (fun (d : Ddg.dep) ->
      if status v d = Marking.Rejected then Some d.Ddg.dep_id else None)
    (carried v sid)

(* a scalar edge on a variable the user privatized in its carrier is
   discounted *)
let blocking v sid =
  memo v.blocking sid (fun () ->
      carried v sid
      |> List.filter (fun d -> status v d <> Marking.Rejected)
      |> Ddg.carried_blocking v.env sid
      |> List.filter (fun (d : Ddg.dep) ->
             not (d.Ddg.is_scalar && List.mem (sid, d.Ddg.var) v.user_private)))

(* scalars whose last value escapes, or that need induction
   substitution, block unless the user declared them private *)
let escapees v sid =
  match Depenv.stmt v.env sid with
  | Some ({ Ast.node = Ast.Do _; _ } as loop) ->
    Transform.Parallelize.last_value_escapees v.env loop
    @ Transform.Indsub.needed v.env loop
    |> List.filter (fun var -> not (List.mem (sid, var) v.user_private))
  | _ -> []

let parallelizable v sid =
  memo v.parallelizable sid (fun () -> blocking v sid = [] && escapees v sid = [])
