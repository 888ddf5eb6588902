open Fortran_front

type ('k, 'v) t = {
  entries : (string, Ast.program_unit * ('k * 'v) list) Hashtbl.t;
  mutable missed : string list;
}

let create () = { entries = Hashtbl.create 64; missed = [] }

(* The entries recorded for [u] itself: none when the memo holds a
   different unit under that name. *)
let entries_for m (u : Ast.program_unit) =
  match Hashtbl.find_opt m.entries u.Ast.uname with
  | Some (u', es) when u' == u -> es
  | _ -> []

let find ?base m (u : Ast.program_unit) key f =
  let own = entries_for m u in
  match List.assoc_opt key own with
  | Some v -> v
  | None ->
    let v =
      match Option.bind base (fun b -> List.assoc_opt key (entries_for b u)) with
      | Some v -> v
      | None ->
        m.missed <- u.Ast.uname :: m.missed;
        f ()
    in
    Hashtbl.replace m.entries u.Ast.uname (u, (key, v) :: own);
    v

let missed m = List.sort_uniq String.compare m.missed
