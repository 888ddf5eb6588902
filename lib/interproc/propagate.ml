module Smap = Map.Make (String)

type direction = Callees_first | Callers_first

type 'a t = { cg : Callgraph.t; facts : 'a Smap.t; solved : string list }

(* A recursive component that has not settled after this many rounds
   keeps its last facts. *)
let max_rounds = 10

let recursive cg = function
  | [ n ] -> List.mem n (Callgraph.callees_of cg n)
  | _ -> true

let run ?base direction ~equal ~solve cg =
  let base_facts = match base with Some b -> b.facts | None -> Smap.empty in
  let facts = ref base_facts in
  let find n = Smap.find_opt n !facts in
  let set n = function
    | Some v -> facts := Smap.add n v !facts
    | None -> facts := Smap.remove n !facts
  in
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> equal a b
    | _ -> false
  in
  (* the units whose fact reads [n]'s *)
  let readers n =
    match direction with
    | Callees_first -> Callgraph.callers_of cg n
    | Callers_first -> Callgraph.callees_of cg n
  in
  let pending = Hashtbl.create 16 in
  let mark n = Hashtbl.replace pending n () in
  let rebuilt, old =
    match base with
    | None -> (Callgraph.unit_names cg, None)
    | Some b -> (Callgraph.rebuilt cg, Some b.cg)
  in
  (* A rebuilt unit is solved afresh.  Its callers read its formals
     (and whether it is a unit at all) besides its fact; its callees
     read its call sites and symbol table, in [cg] and in [old].
     Without a base every unit is rebuilt, so there is no one else to
     mark. *)
  List.iter
    (fun n ->
      set n None;
      mark n;
      Option.iter
        (fun old ->
          match direction with
          | Callees_first ->
            if Callgraph.formals_of old n <> Callgraph.formals_of cg n then
              List.iter mark (readers n)
          | Callers_first ->
            List.iter mark (readers n);
            List.iter mark (Callgraph.callees_of old n))
        old)
    rebuilt;
  let components =
    match direction with
    | Callees_first -> Callgraph.components cg
    | Callers_first -> List.rev (Callgraph.components cg)
  in
  let solved = ref [] in
  List.iter
    (fun comp ->
      if List.exists (Hashtbl.mem pending) comp then begin
        let units =
          List.filter_map
            (fun n -> Option.map (fun u -> (n, u)) (Callgraph.unit_named cg n))
            comp
        in
        if recursive cg comp then begin
          List.iter (fun (n, _) -> set n None) units;
          let rec round k =
            let moved =
              List.fold_left
                (fun moved (n, u) ->
                  let v = solve find u in
                  if same v (find n) then moved
                  else begin
                    set n v;
                    true
                  end)
                false units
            in
            if moved && k < max_rounds then round (k + 1)
          in
          round 1
        end
        else List.iter (fun (n, u) -> set n (solve find u)) units;
        List.iter
          (fun (n, _) ->
            solved := n :: !solved;
            if not (same (find n) (Smap.find_opt n base_facts)) then
              List.iter mark (readers n))
          units
      end)
    components;
  { cg; facts = !facts; solved = List.sort String.compare !solved }

let find t n = Smap.find_opt n t.facts
let graph t = t.cg
let solved t = t.solved
