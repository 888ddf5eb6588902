open Fortran_front

type reduction_op = Rsum | Rprod | Rmax | Rmin

type classification =
  | Induction of { stride : Symbolic.Linear.t option }
  | Reduction of reduction_op
  | Private of { needs_last_value : bool }
  | Shared_safe
  | Shared_unsafe

let classification_to_string = function
  | Induction _ -> "induction"
  | Reduction Rsum -> "reduction(+)"
  | Reduction Rprod -> "reduction(*)"
  | Reduction Rmax -> "reduction(max)"
  | Reduction Rmin -> "reduction(min)"
  | Private { needs_last_value = true } -> "private(lastvalue)"
  | Private { needs_last_value = false } -> "private"
  | Shared_safe -> "shared"
  | Shared_unsafe -> "shared(unsafe)"

(* A variable's class as the walk decides it.  Whether a killed scalar
   needs its last value is read from liveness only when asked, so
   callers that look at the unsafe scalars alone never read it. *)
type entry = Known of classification | Killed

type t = {
  vars : (string * entry) array;  (* sorted by name *)
  live_after : unit -> string list;
}

(* ------------------------------------------------------------------ *)
(* Auxiliary induction variables                                       *)
(* ------------------------------------------------------------------ *)

(* A statement K = K + c / K = K - c with a literal (or simplifiable)
   integer stride. *)
let aux_candidate (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Assign (Ast.Var v, rhs) -> (
    match Ast.simplify rhs with
    | Ast.Bin (Ast.Add, Ast.Var v', Ast.Int c) when String.equal v v' ->
      Some (v, c, s.Ast.sid)
    | Ast.Bin (Ast.Add, Ast.Int c, Ast.Var v') when String.equal v v' ->
      Some (v, c, s.Ast.sid)
    | Ast.Bin (Ast.Sub, Ast.Var v', Ast.Int c) when String.equal v v' ->
      Some (v, -c, s.Ast.sid)
    | _ -> None)
  | _ -> None

let aux_inductions ctx (loop : Ast.stmt) : (string * int * Ast.stmt_id) list =
  match loop.Ast.node with
  | Ast.Do (h, body) ->
    (* top-level candidates with no other definition anywhere in the
       body *)
    List.filter_map aux_candidate body
    |> List.filter (fun (v, _, sid) ->
           String.equal v h.Ast.dvar = false
           && Ast.fold_stmts
                (fun acc (s : Ast.stmt) ->
                  acc
                  && (s.Ast.sid = sid || not (List.mem v (Defuse.may_defs ctx s))))
                true body)
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Reduction recognition                                               *)
(* ------------------------------------------------------------------ *)

(* Additive terms of an expression with their polarity: [S + A - B]
   yields [(S,+); (A,+); (B,-)]. *)
let rec sum_terms pos (e : Ast.expr) : (Ast.expr * bool) list =
  match e with
  | Ast.Bin (Ast.Add, a, b) -> sum_terms pos a @ sum_terms pos b
  | Ast.Bin (Ast.Sub, a, b) -> sum_terms pos a @ sum_terms (not pos) b
  | Ast.Un (Ast.Neg, a) -> sum_terms (not pos) a
  | _ -> [ (e, pos) ]

let rec prod_factors (e : Ast.expr) : Ast.expr list =
  match e with
  | Ast.Bin (Ast.Mul, a, b) -> prod_factors a @ prod_factors b
  | _ -> [ e ]

let reduction_op_of v (rhs : Ast.expr) : reduction_op option =
  (* sum:  the accumulator appears exactly once, positively, as a
     whole additive term (v = v + e1 - e2 + ...);
     prod: exactly once as a whole factor (v = v * e);
     max/min: v = MAX(v, e) / MIN(v, e) in either argument order.
     Everything else referencing v disqualifies. *)
  let is_v = function Ast.Var v' -> String.equal v v' | _ -> false in
  let free e = not (List.mem v (Ast.expr_vars e)) in
  let terms = sum_terms true rhs in
  let v_terms, others = List.partition (fun (e, _) -> is_v e) terms in
  match (v_terms, others) with
  | [ (_, true) ], _ when List.for_all (fun (e, _) -> free e) others ->
    if others = [] then None (* v = v: not a reduction *) else Some Rsum
  | _ -> (
    let factors = prod_factors rhs in
    let v_factors, other_f = List.partition is_v factors in
    match v_factors with
    | [ _ ] when other_f <> [] && List.for_all free other_f -> Some Rprod
    | _ -> (
      match rhs with
      | Ast.Index ("MAX", [ a; b ]) when is_v a && free b -> Some Rmax
      | Ast.Index ("MAX", [ a; b ]) when is_v b && free a -> Some Rmax
      | Ast.Index ("MIN", [ a; b ]) when is_v a && free b -> Some Rmin
      | Ast.Index ("MIN", [ a; b ]) when is_v b && free a -> Some Rmin
      | _ -> None))

let ops = [| Rsum; Rprod; Rmax; Rmin |]
let op_index = function Rsum -> 0 | Rprod -> 1 | Rmax -> 2 | Rmin -> 3

(* ------------------------------------------------------------------ *)
(* Classification: one bottom-up walk over a statement list            *)
(* ------------------------------------------------------------------ *)

type loop_classes = {
  lc_stmt : Ast.stmt;
  lc_first : int;
  lc_stop : int;
  lc_classes : t;
}

(* The walk numbers the statements in preorder and the unit's scalars
   in name order.  Per scalar it keeps the positions of the last
   statements that mention it, define it (the last two), use it outside
   a reduction statement, and reduce it with each operation; a loop's
   body is the positions from [first] on when the walk leaves the loop,
   so "some statement of the body does X" is "the last one that did X
   is at or after [first]".  Upward-exposed uses and must-defs are
   composed region by region in bit sets, and each loop's body summary
   is folded into its parent's. *)
let classify_nest ?(recognize_reductions = true) ?facts ~cfg ctx
    (liveness : Liveness.t) (stmts : Ast.stmt list) : loop_classes list =
  let facts =
    match facts with
    | Some f -> fun pos _ -> f pos
    | None -> fun _ s -> Defuse.facts ctx s
  in
  let names =
    List.filter_map
      (fun (i : Symbol.info) ->
        match i.kind with Symbol.Scalar -> Some i.name | _ -> None)
      (Symbol.infos (Defuse.table ctx))
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let n = Array.length names in
  let id = Hashtbl.create (2 * n) in
  Array.iteri (fun i v -> Hashtbl.replace id v i) names;
  let ids = List.filter_map (Hashtbl.find_opt id) in
  let last_mention = Array.make n (-1)
  and last_def = Array.make n (-1)
  and prev_def = Array.make n (-1)
  and last_other = Array.make n (-1)
  and last_op = Array.init (Array.length ops) (fun _ -> Array.make n (-1))
  and last_jump = ref (-1) in
  let reduction i first =
    if last_other.(i) >= first then None
    else
      match List.filter (fun o -> last_op.(op_index o).(i) >= first) (Array.to_list ops) with
      | [ op ] -> Some op
      | _ -> None
  in
  let classes (loop : Ast.stmt) (h : Ast.do_header) body bounds first ue =
    let dvar = Hashtbl.find_opt id h.Ast.dvar in
    (* a top-level increment is an auxiliary induction when no other
       statement of the body defines its variable *)
    let auxs =
      List.filter_map
        (fun s ->
          match aux_candidate s with
          | Some (v, c, _) -> (
            match Hashtbl.find_opt id v with
            | Some i when Some i <> dvar && prev_def.(i) < first -> Some (i, c)
            | Some _ | None -> None)
          | None -> None)
        body
    in
    let structured = !last_jump < first in
    let classify_var i =
      if Some i = dvar then Known (Induction { stride = None })
      else
        match List.assoc_opt i auxs with
        | Some c -> Known (Induction { stride = Some (Symbolic.Linear.const c) })
        | None ->
          if last_def.(i) < first then Known Shared_safe
          else if not structured then Known Shared_unsafe
          else
            match if recognize_reductions then reduction i first else None with
            | Some op -> Known (Reduction op)
            | None ->
              (* killed on every iteration before any use: privatizable *)
              if Bits.mem ue i then Known Shared_unsafe else Killed
    in
    let vars = ref [] in
    for i = n - 1 downto 0 do
      if last_mention.(i) >= first || List.mem i bounds then
        vars := (names.(i), classify_var i) :: !vars
    done;
    {
      vars = Array.of_list !vars;
      live_after = (fun () -> Liveness.live_after liveness cfg loop.Ast.sid);
    }
  in
  let pos = ref 0 and out = ref [] in
  (* [ue] and [md] accumulate the region's upward-exposed uses and
     must-defs; each statement adds its own minus what is already
     must-defined *)
  let rec region stmts =
    let ue = Bits.make n and md = Bits.make n in
    List.iter (stmt ue md) stmts;
    (ue, md)
  and stmt ue md (s : Ast.stmt) =
    let here = !pos in
    incr pos;
    let f = facts here s in
    let uses = ids f.Defuse.uses and defs = ids f.Defuse.may_defs in
    List.iter (fun i -> last_mention.(i) <- here) uses;
    List.iter
      (fun i ->
        last_mention.(i) <- here;
        if last_def.(i) <> here then begin
          prev_def.(i) <- last_def.(i);
          last_def.(i) <- here
        end)
      defs;
    if recognize_reductions then begin
      let lhs =
        match s.Ast.node with
        | Ast.Assign (Ast.Var v, rhs) -> (
          match Hashtbl.find_opt id v with
          | Some i ->
            (match reduction_op_of v rhs with
            | Some op -> last_op.(op_index op).(i) <- here
            | None -> last_other.(i) <- here);
            i
          | None -> -1)
        | _ -> -1
      in
      let other i = if i <> lhs then last_other.(i) <- here in
      List.iter other uses;
      List.iter other defs
    end;
    let expose = List.iter (fun i -> if not (Bits.mem md i) then Bits.add ue i) in
    match s.Ast.node with
    | Ast.Goto _ | Ast.Return | Ast.Stop -> last_jump := here
    | Ast.Assign _ | Ast.Call _ | Ast.Continue | Ast.Print _ ->
      expose uses;
      List.iter (Bits.add md) (ids f.Defuse.must_defs)
    | Ast.If (branches, els) ->
      expose uses;
      (* must-defined only when every branch, the ELSE included, does *)
      let all_md =
        List.fold_left
          (fun acc body ->
            let ue_b, md_b = region body in
            Bits.union_diff_into ue ue_b md;
            match acc with
            | None -> Some md_b
            | Some acc ->
              Bits.inter_into acc md_b;
              Some acc)
          None
          (List.map snd branches @ [ els ])
      in
      Option.iter (Bits.union_into md) all_md
    | Ast.Do (h, body) ->
      expose uses;
      let first = !pos in
      let ue_b, _ = region body in
      out :=
        {
          lc_stmt = s;
          lc_first = first;
          lc_stop = !pos;
          lc_classes = classes s h body uses first ue_b;
        }
        :: !out;
      (* the loop may run zero times: only the induction variable is a
         must-def (the header always assigns it) *)
      let must = ids f.Defuse.must_defs in
      List.iter (Bits.remove ue_b) must;
      Bits.union_diff_into ue ue_b md;
      List.iter (Bits.add md) must
  in
  ignore (region stmts);
  List.sort (fun a b -> Int.compare a.lc_first b.lc_first) !out

let classify ?recognize_reductions ~cfg ctx liveness (loop : Ast.stmt) : t =
  match loop.Ast.node with
  | Ast.Do _ -> (
    match classify_nest ?recognize_reductions ~cfg ctx liveness [ loop ] with
    | lc :: _ -> lc.lc_classes
    | [] -> assert false)
  | _ -> invalid_arg "Varclass.classify: not a DO loop"

let resolve t =
  let live = lazy (t.live_after ()) in
  fun v -> function
    | Known c -> c
    | Killed -> Private { needs_last_value = List.mem v (Lazy.force live) }

let lookup t v =
  Array.find_opt (fun (v', _) -> String.equal v v') t.vars
  |> Option.map (fun (v, e) -> resolve t v e)

let all t =
  let resolve = resolve t in
  Array.to_list (Array.map (fun (v, e) -> (v, resolve v e)) t.vars)

let unsafe = function Known Shared_unsafe -> true | Known _ | Killed -> false
let parallelizable t = not (Array.exists (fun (_, e) -> unsafe e) t.vars)

let blockers t =
  Array.to_list t.vars |> List.filter_map (fun (v, e) -> if unsafe e then Some v else None)
