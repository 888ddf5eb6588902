open Fortran_front
open Scalar_analysis

type t = (string * int) list Propagate.t

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

(* A formal is constant when every site passes it the same value. *)
let solve cg find (u : Ast.program_unit) =
  match (Callgraph.formals_of cg u.Ast.uname, Callgraph.sites_to cg u.Ast.uname) with
  | (None | Some []), _ | _, [] -> None
  | Some formals, sites -> (
    let value i (site : Callgraph.site) =
      match
        (Callgraph.symbols_named cg site.Callgraph.caller,
         List.nth_opt site.Callgraph.actuals i)
      with
      | Some tbl, Some a ->
        let caller_consts =
          Option.value ~default:[] (find site.Callgraph.caller)
        in
        eval_actual tbl caller_consts a
      | _ -> None
    in
    let constant i f =
      match List.map (value i) sites with
      | Some v :: rest when List.for_all (fun x -> x = Some v) rest -> Some (f, v)
      | _ -> None
    in
    match List.filter_map Fun.id (List.mapi constant formals) with
    | [] -> None
    | consts -> Some consts)

let compute ?base (cg : Callgraph.t) : t =
  Propagate.run ?base Propagate.Callers_first ~equal:( = ) ~solve:(solve cg) cg

let solved = Propagate.solved

let constants_of t name = Option.value ~default:[] (Propagate.find t name)
