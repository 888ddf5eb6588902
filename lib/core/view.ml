open Fortran_front
open Dependence

type t = {
  env : Depenv.t;
  ddg : Ddg.t;
  marking : Marking.t;
  user_private : (Ast.stmt_id * string) list;
  statuses : (int, Marking.status) Hashtbl.t;
  by_carrier : (Ast.stmt_id, Ddg.dep list) Hashtbl.t Lazy.t;
  verdicts : (Ast.stmt_id, Transform.Parallelize.verdict) Hashtbl.t;
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
    verdicts = Hashtbl.create 16;
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

(* the loop's carried edges the user has not rejected, and the scalars
   the user privatized in it *)
let verdict v sid =
  memo v.verdicts sid (fun () ->
      let user_private =
        List.filter_map
          (fun (l, var) -> if l = sid then Some var else None)
          v.user_private
      in
      let carried =
        List.filter (fun d -> status v d <> Marking.Rejected) (carried v sid)
      in
      Transform.Parallelize.verdict ~user_private v.env ~carried sid)

let blocking v sid = (verdict v sid).Transform.Parallelize.blockers
let parallelizable v sid = Transform.Parallelize.safe (verdict v sid)
