open Fortran_front

(* alias kind: [`Aligned] — both names denote the same storage starting
   at the same element (whole-array actuals), so subscripts compare
   directly; [`May] — overlapping storage with unknown offset (an
   array-element actual): nothing can be compared. *)

module PM = Map.Make (struct
  type t = string * string

  let compare = compare
end)

type kind = Aligned | May

type t = kind PM.t Propagate.t

let norm (a, b) = if String.compare a b <= 0 then (a, b) else (b, a)

let weaker a b = match (a, b) with Aligned, Aligned -> Aligned | _ -> May

(* The pairs every site calling [u] gives its formals, each pair of
   the weaker kind any site gives it. *)
let solve cg find (u : Ast.program_unit) =
  (* asked only of callers and of [u]: both are units of the graph *)
  let table n = Option.get (Callgraph.symbols_named cg n) in
  let formals = Option.value ~default:[] (Callgraph.formals_of cg u.Ast.uname) in
  let pairs = ref PM.empty in
  let add p k =
    pairs :=
      PM.update (norm p)
        (function Some old -> Some (weaker old k) | None -> Some k)
        !pairs
  in
  List.iter
    (fun (site : Callgraph.site) ->
      let caller_pairs =
        Option.value ~default:PM.empty (find site.Callgraph.caller)
      in
      let caller_tbl = table site.Callgraph.caller in
      (* (formal, base variable, whole-array?) per actual position *)
      let actuals =
        List.mapi
          (fun i a ->
            let f = List.nth_opt formals i in
            match (a : Ast.expr) with
            | Ast.Var v -> (f, Some v, true)
            | Ast.Index (b, _) when not (Symbol.is_fun_call caller_tbl b) ->
              (f, Some b, false)
            | _ -> (f, None, false))
          site.Callgraph.actuals
      in
      List.iteri
        (fun i (fi, bi, wi) ->
          List.iteri
            (fun j (fj, bj, wj) ->
              if i < j then
                match (fi, bi, fj, bj) with
                | Some fi, Some bi, Some fj, Some bj ->
                  (* same base passed twice *)
                  if String.equal bi bj then
                    add (fi, fj) (if wi && wj then Aligned else May);
                  (* actuals already aliased in the caller *)
                  (match PM.find_opt (norm (bi, bj)) caller_pairs with
                  | Some k -> add (fi, fj) (if wi && wj then k else May)
                  | None -> ())
                | _ -> ())
            actuals)
        actuals;
      (* a COMMON variable passed as an actual aliases the formal
         when the callee sees the same COMMON name *)
      List.iter
        (fun (f, b, whole) ->
          match (f, b) with
          | Some f, Some b ->
            if
              Symbol.is_common caller_tbl b
              && Symbol.is_common (table u.Ast.uname) b
            then add (f, b) (if whole then Aligned else May)
          | _ -> ())
        actuals)
    (Callgraph.sites_to cg u.Ast.uname);
  if PM.is_empty !pairs then None else Some !pairs

let compute ?base (cg : Callgraph.t) : t =
  Propagate.run ?base Propagate.Callers_first ~equal:(PM.equal ( = ))
    ~solve:(solve cg) cg

let solved = Propagate.solved

let facts t u = Option.value ~default:PM.empty (Propagate.find t u)

let pairs_of t u =
  PM.bindings (facts t u)
  |> List.map (fun ((a, b), k) -> (a, b, k))

let query t u a b =
  match PM.find_opt (norm (a, b)) (facts t u) with
  | Some Aligned -> `Aligned
  | Some May -> `May
  | None -> `No
