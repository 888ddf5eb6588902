open Fortran_front
open Scalar_analysis

type t = { consts : (string, (string * int) list) Hashtbl.t }

(* Evaluate an actual argument using the caller's PARAMETER constants
   and its already-known interprocedural formal constants. *)
let eval_actual tbl caller_consts (e : Ast.expr) : int option =
  let lookup v =
    match List.assoc_opt v caller_consts with
    | Some n -> Some (Constants.Cint n)
    | None -> (
      match Symbol.param_value tbl v with
      | Some n -> Some (Constants.Cint n)
      | None -> None)
  in
  match Constants.eval_with lookup e with
  | Some (Constants.Cint n) -> Some n
  | _ -> None

let compute (cg : Callgraph.t) : t =
  let consts : (string, (string * int) list) Hashtbl.t = Hashtbl.create 16 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    List.iter
      (fun callee ->
        match Callgraph.formals_of cg callee with
        | None | Some [] -> ()
        | Some formals ->
          let sites = Callgraph.sites_to cg callee in
          if sites <> [] then begin
            (* a formal is constant iff all sites agree on a value *)
            let per_formal =
              List.mapi
                (fun i f ->
                  let vals =
                    List.map
                      (fun (site : Callgraph.site) ->
                        match
                          (Callgraph.symbols_named cg site.Callgraph.caller,
                           List.nth_opt site.Callgraph.actuals i)
                        with
                        | Some tbl, Some a ->
                          let caller_consts =
                            Option.value ~default:[]
                              (Hashtbl.find_opt consts site.Callgraph.caller)
                          in
                          eval_actual tbl caller_consts a
                        | _ -> None)
                      sites
                  in
                  match vals with
                  | Some v :: rest
                    when List.for_all (fun x -> x = Some v) rest ->
                    Some (f, v)
                  | _ -> None)
                formals
              |> List.filter_map Fun.id
            in
            let old = Option.value ~default:[] (Hashtbl.find_opt consts callee) in
            if per_formal <> old then begin
              Hashtbl.replace consts callee per_formal;
              changed := true
            end
          end)
      (Callgraph.unit_names cg)
  done;
  { consts }

let constants_of t name =
  Option.value ~default:[] (Hashtbl.find_opt t.consts name)
