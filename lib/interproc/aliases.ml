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

type t = { pairs : (string, kind PM.t) Hashtbl.t }

let norm (a, b) = if String.compare a b <= 0 then (a, b) else (b, a)

let weaker a b = match (a, b) with Aligned, Aligned -> Aligned | _ -> May

let compute (cg : Callgraph.t) : t =
  let pairs : (string, kind PM.t) Hashtbl.t = Hashtbl.create 8 in
  let get u = Option.value ~default:PM.empty (Hashtbl.find_opt pairs u) in
  (* only asked of callers and of callees with known formals: both
     are units of the graph *)
  let table u = Option.get (Callgraph.symbols_named cg u) in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 10 do
    changed := false;
    incr rounds;
    List.iter
      (fun (site : Callgraph.site) ->
        match Callgraph.formals_of cg site.Callgraph.callee with
        | None -> ()
        | Some formals ->
          let caller_pairs = get site.Callgraph.caller in
          let caller_tbl = table site.Callgraph.caller in
          (* (formal, base variable, whole-array?) per actual position *)
          let actuals =
            List.mapi
              (fun i a ->
                let f = List.nth_opt formals i in
                match (a : Ast.expr) with
                | Ast.Var v -> (f, Some v, true)
                | Ast.Index (b, _)
                  when not (Symbol.is_fun_call caller_tbl b) ->
                  (f, Some b, false)
                | _ -> (f, None, false))
              site.Callgraph.actuals
          in
          let add p k =
            let u = site.Callgraph.callee in
            let cur = get u in
            let p = norm p in
            let k =
              match PM.find_opt p cur with
              | Some old -> weaker old k
              | None -> k
            in
            if PM.find_opt p cur <> Some k then begin
              Hashtbl.replace pairs u (PM.add p k cur);
              changed := true
            end
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
                      | Some k ->
                        add (fi, fj)
                          (if wi && wj then k else May)
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
                  && Symbol.is_common (table site.Callgraph.callee) b
                then add (f, b) (if whole then Aligned else May)
              | _ -> ())
            actuals)
      (Callgraph.sites cg)
  done;
  { pairs }

let pairs_of t u =
  PM.bindings (Option.value ~default:PM.empty (Hashtbl.find_opt t.pairs u))
  |> List.map (fun ((a, b), k) -> (a, b, k))

let query t u a b =
  match
    PM.find_opt (norm (a, b))
      (Option.value ~default:PM.empty (Hashtbl.find_opt t.pairs u))
  with
  | Some Aligned -> `Aligned
  | Some May -> `May
  | None -> `No
