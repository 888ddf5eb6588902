(* Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm"
   (Rice, 2001), on CFG node numbers.

   The tree is rooted at a virtual node [v] whose children are the
   nodes without a flow predecessor: the root ([Entry], or [Exit] for
   postdominators) and any unreachable statement nothing jumps to,
   which has only itself for dominator.  A node that [v] does not
   reach is "outside": it lies on a cycle no root reaches — for
   postdominators, a GOTO cycle that never exits — and every node
   dominates it. *)

type t = {
  cfg : Cfg.t;
  (* indexed by node number, [v] last: the parent in the tree ([v] for
     a child of [v]); for an outside node, its immediate dominator or
     -1 *)
  idom_ : int array;
  depth : int array;  (* [v] has depth 0; -1 for an outside node *)
}

let compute cfg ~(preds : int -> int array) ~(succs : int -> int array) =
  let n = Cfg.size cfg in
  let v = n in
  let is_root i = Array.length (preds i) = 0 in
  let flow_succs i =
    if i = v then Array.of_list (List.filter is_root (List.init n Fun.id))
    else succs i
  in
  (* postorder numbers of the nodes [v] reaches *)
  let po = Array.make (n + 1) (-1) and by_po = Array.make (n + 1) v in
  let count = ref 0 in
  let rec dfs i =
    po.(i) <- 0;
    Array.iter (fun s -> if po.(s) < 0 then dfs s) (flow_succs i);
    po.(i) <- !count;
    by_po.(!count) <- i;
    incr count
  in
  dfs v;
  let undef = -1 in
  let idom = Array.make (n + 1) undef in
  idom.(v) <- v;
  let rec intersect a b =
    if a = b then a
    else if po.(a) < po.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse postorder, skipping [v] (the last number) *)
    for k = !count - 2 downto 0 do
      let b = by_po.(k) in
      let ps = if is_root b then [| v |] else preds b in
      let next =
        Array.fold_left
          (fun acc p ->
            if idom.(p) = undef then acc
            else if acc = undef then p
            else intersect p acc)
          undef ps
      in
      if idom.(b) <> next then begin
        idom.(b) <- next;
        changed := true
      end
    done
  done;
  let depth = Array.make (n + 1) (-1) in
  depth.(v) <- 0;
  for k = !count - 2 downto 0 do
    let b = by_po.(k) in
    depth.(b) <- depth.(idom.(b)) + 1
  done;
  (* Every node dominates an outside node, so its immediate dominator
     is the strict dominator that all the others dominate: the greatest
     other outside node in [node_compare] order, as outside nodes all
     dominate each other; failing one, the deepest node of a tree that
     is a single path through every other node. *)
  let outside =
    List.filter (fun i -> depth.(i) < 0) (List.init n Fun.id)
    |> List.sort (fun a b -> Cfg.node_compare (Cfg.node_at cfg b) (Cfg.node_at cfg a))
  in
  let path_end =
    Option.value ~default:undef
      (List.find_opt (fun i -> depth.(i) = n - 1) (List.init n Fun.id))
  in
  List.iter
    (fun i ->
      idom.(i) <-
        (match outside with
        | o :: _ when o <> i -> o
        | _ :: o :: _ -> o
        | _ -> path_end))
    outside;
  { cfg; idom_ = idom; depth }

let dominators cfg =
  compute cfg ~preds:(Cfg.pred_ids cfg) ~succs:(Cfg.succ_ids cfg)

let postdominators cfg =
  compute cfg ~preds:(Cfg.succ_ids cfg) ~succs:(Cfg.pred_ids cfg)

let dominates t a b =
  match (Cfg.index t.cfg a, Cfg.index t.cfg b) with
  | Some a, Some b ->
    let d = t.depth in
    d.(b) < 0
    || d.(a) >= 0
       &&
       let rec up b = b = a || (d.(b) > d.(a) && up t.idom_.(b)) in
       up b
  | _ -> false

let idom t n =
  match Cfg.index t.cfg n with
  | Some i when t.idom_.(i) >= 0 && t.idom_.(i) < Cfg.size t.cfg ->
    Some (Cfg.node_at t.cfg t.idom_.(i))
  | _ -> None
