open Fortran_front

type edge = { branch : Ast.stmt_id; dependent : Ast.stmt_id }

let compute (cfg : Cfg.t) : edge list =
  let pdom = Dominators.postdominators cfg in
  let limit = List.length (Cfg.nodes cfg) in
  let edges = ref [] in
  (* For each CFG edge (a, b) where b does not postdominate a, every
     node on the postdominator-tree path from b up to (excluding)
     ipdom(a) is control dependent on a. *)
  List.iter
    (fun a ->
      match a with
      | Cfg.Entry | Cfg.Exit -> ()
      | Cfg.Stmt a_sid ->
        let ipdom_a = Dominators.idom pdom a in
        List.iter
          (fun b ->
            if not (Dominators.dominates pdom b a) then begin
              (* walk b, ipdom(b), ... until ipdom(a).  Nodes that
                 never reach the exit (a GOTO cycle) all postdominate
                 each other, so their chain can come back on itself;
                 a chain in a tree is shorter than the node count. *)
              let rec walk steps n =
                match (n, ipdom_a) with
                | _, Some stop when Cfg.node_equal n stop -> ()
                | Cfg.Exit, _ -> ()
                | Cfg.Entry, _ -> ()
                | Cfg.Stmt _, _ when steps > limit -> ()
                | Cfg.Stmt sid, _ ->
                  edges := { branch = a_sid; dependent = sid } :: !edges;
                  (match Dominators.idom pdom n with
                  | Some up -> walk (steps + 1) up
                  | None -> ())
              in
              walk 0 b
            end)
          (Cfg.succs cfg a))
    (Cfg.nodes cfg);
  (* dedupe *)
  List.sort_uniq compare !edges

let controllers edges sid =
  List.filter_map
    (fun e -> if e.dependent = sid then Some e.branch else None)
    edges
  |> List.sort_uniq compare
