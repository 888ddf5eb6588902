open Fortran_front
open Scalar_analysis

type sec1 = Point of Ast.expr | Range of Ast.expr * Ast.expr | Star

type section = sec1 list

type access = { sec_w : section option; sec_r : section option }

type t = (string * access) list Propagate.t

(* ------------------------------------------------------------------ *)
(* Section lattice                                                     *)
(* ------------------------------------------------------------------ *)

let const_of (e : Ast.expr) = match e with Ast.Int n -> Some n | _ -> None

let merge1 (a : sec1) (b : sec1) : sec1 =
  let hull lo1 hi1 lo2 hi2 =
    match (const_of lo1, const_of hi1, const_of lo2, const_of hi2) with
    | Some l1, Some h1, Some l2, Some h2 ->
      Range (Ast.Int (min l1 l2), Ast.Int (max h1 h2))
    | _ ->
      if Ast.expr_equal lo1 lo2 && Ast.expr_equal hi1 hi2 then Range (lo1, hi1)
      else Star
  in
  match (a, b) with
  | Star, _ | _, Star -> Star
  | Point x, Point y ->
    if Ast.expr_equal x y then Point x else hull x x y y
  | Point x, Range (lo, hi) | Range (lo, hi), Point x -> hull x x lo hi
  | Range (l1, h1), Range (l2, h2) -> hull l1 h1 l2 h2

let merge_section (a : section) (b : section) : section =
  if List.length a <> List.length b then
    List.map (fun _ -> Star) (if List.length a > List.length b then a else b)
  else List.map2 merge1 a b

let merge_access (a : access) (b : access) : access =
  let m x y =
    match (x, y) with
    | None, z | z, None -> z
    | Some s1, Some s2 -> Some (merge_section s1 s2)
  in
  { sec_w = m a.sec_w b.sec_w; sec_r = m a.sec_r b.sec_r }

let add_access table array acc =
  let cur =
    Option.value ~default:{ sec_w = None; sec_r = None }
      (Hashtbl.find_opt table array)
  in
  Hashtbl.replace table array (merge_access cur acc)

(* ------------------------------------------------------------------ *)
(* Converting a subscript to a section dimension                       *)
(* ------------------------------------------------------------------ *)

(* [allowed] decides whether a variable may appear in a summary
   expression (formals, COMMON, parameters). *)
let rec expr_allowed allowed (e : Ast.expr) =
  match e with
  | Ast.Var v -> allowed v
  | Ast.Int _ | Ast.Real _ | Ast.Logic _ | Ast.Str _ -> true
  | Ast.Index _ -> false
  | Ast.Bin (_, a, b) -> expr_allowed allowed a && expr_allowed allowed b
  | Ast.Un (_, a) -> expr_allowed allowed a

(* Widen a subscript over the enclosing loops: substitute each loop's
   induction variable by its bounds (monotonicity decided by the
   linear coefficient).  Returns a section dimension. *)
let dim_of_subscript ~allowed ~(loops : Dependence.Loopnest.loop list) (e : Ast.expr) :
    sec1 =
  let rec widen e loops =
    match loops with
    | [] ->
      if expr_allowed allowed e then `Pt e else `Star
    | (lp : Dependence.Loopnest.loop) :: rest -> (
      let iv = lp.Dependence.Loopnest.header.Ast.dvar in
      if not (List.mem iv (Ast.expr_vars e)) then widen e rest
      else
        let lo = lp.Dependence.Loopnest.header.Ast.lo
        and hi = lp.Dependence.Loopnest.header.Ast.hi in
        let step_ok =
          match lp.Dependence.Loopnest.header.Ast.step with
          | None -> true
          | Some (Ast.Int n) -> n <> 0
          | Some _ -> false
        in
        let coeff =
          Symbolic.linearize
            ~resolve:(fun v ->
              if String.equal v iv then None else Some (Symbolic.Linear.sym v))
            e
          |> Option.map (Symbolic.Linear.coeff iv)
        in
        match (coeff, step_ok) with
        | Some c, true when c <> 0 ->
          let e_lo = Ast.simplify (Ast.subst_var iv lo e) in
          let e_hi = Ast.simplify (Ast.subst_var iv hi e) in
          let e_lo, e_hi = if c > 0 then (e_lo, e_hi) else (e_hi, e_lo) in
          (match (widen e_lo rest, widen e_hi rest) with
          | `Pt a, `Pt b -> `Rg (a, b)
          | `Rg (a, _), `Rg (_, b) -> `Rg (a, b)
          | `Pt a, `Rg (_, b) | `Rg (a, _), `Pt b -> `Rg (a, b)
          | _ -> `Star)
        | _ -> `Star)
  in
  match widen e loops with
  | `Pt e -> Point e
  | `Rg (a, b) -> if Ast.expr_equal a b then Point a else Range (a, b)
  | `Star -> Star

(* ------------------------------------------------------------------ *)
(* Call-site translation                                               *)
(* ------------------------------------------------------------------ *)

let subst_formals (formals : string list) (actuals : Ast.expr list) e =
  let rec go e fs acts =
    match (fs, acts) with
    | f :: fs, a :: acts ->
      let e =
        match a with
        | Ast.Var _ | Ast.Int _ | Ast.Real _ | Ast.Bin _ | Ast.Un _ ->
          Ast.subst_var f a e
        | Ast.Index _ | Ast.Logic _ | Ast.Str _ -> e
      in
      go e fs acts
    | _, _ -> e
  in
  go e formals actuals

let translate_sec1 formals actuals ~caller_ok (s : sec1) : sec1 =
  let tr e =
    let e' = Ast.simplify (subst_formals formals actuals e) in
    if caller_ok e' then Some e' else None
  in
  match s with
  | Star -> Star
  | Point e -> ( match tr e with Some e -> Point e | None -> Star)
  | Range (a, b) -> (
    match (tr a, tr b) with
    | Some a, Some b -> Range (a, b)
    | _ -> Star)

(* Translate a callee array access through a call site.  Returns
   [(caller_array, access)] or [None] when the array does not map to a
   caller array. *)
let translate_access (cg : Callgraph.t) tbl (site : Callgraph.site)
    (callee_array : string) (acc : access) : (string * access) option =
  match Callgraph.formals_of cg site.Callgraph.callee with
  | None -> None
  | Some formals -> (
    let target =
      match List.find_index (String.equal callee_array) formals with
      | Some i -> (
        match List.nth_opt site.Callgraph.actuals i with
        | Some (Ast.Var b) when Symbol.is_array tbl b -> Some (b, true)
        | Some (Ast.Index (b, _)) when Symbol.is_array tbl b ->
          Some (b, false) (* offset section passed: lose precision *)
        | _ -> None)
      | None ->
        if Symbol.is_array tbl callee_array then Some (callee_array, true)
        else None
    in
    match target with
    | None -> None
    | Some (caller_array, precise) ->
      let caller_ok e =
        List.for_all
          (fun v ->
            match Symbol.lookup tbl v with
            | Some { kind = Symbol.Scalar; _ } -> true
            | _ -> false)
          (Ast.expr_vars e)
      in
      let tr_section sec =
        if not precise then List.map (fun _ -> Star) sec
        else
          List.map
            (translate_sec1 formals site.Callgraph.actuals ~caller_ok)
            sec
      in
      Some
        ( caller_array,
          {
            sec_w = Option.map tr_section acc.sec_w;
            sec_r = Option.map tr_section acc.sec_r;
          } ))

(* ------------------------------------------------------------------ *)
(* Per-unit summary                                                    *)
(* ------------------------------------------------------------------ *)

let unit_summary (cg : Callgraph.t)
    (summaries : string -> (string * access) list option)
    (u : Ast.program_unit) : (string * access) list =
  let tbl = Callgraph.symbols cg u in
  let ctx = Defuse.make tbl u in
  let nest = Dependence.Loopnest.build u in
  let visible name =
    match Symbol.lookup tbl name with
    | Some (i : Symbol.info) -> i.formal || i.common <> None
    | None -> false
  in
  let allowed v =
    match Symbol.lookup tbl v with
    | Some (i : Symbol.info) ->
      i.formal || i.common <> None || i.param <> None
    | None -> false
  in
  let table : (string, access) Hashtbl.t = Hashtbl.create 8 in
  Ast.iter_stmts
    (fun (s : Ast.stmt) ->
      let loops = Dependence.Loopnest.enclosing nest s.Ast.sid in
      let add is_write (a, subs) =
        if visible a then begin
          let sec = List.map (dim_of_subscript ~allowed ~loops) subs in
          let acc =
            if is_write then { sec_w = Some sec; sec_r = None }
            else { sec_w = None; sec_r = Some sec }
          in
          add_access table a acc
        end
      in
      List.iter (add true) (Defuse.array_writes ctx s);
      List.iter (add false) (Defuse.array_reads ctx s);
      (* calls: translated callee sections, widened over our loops *)
      match s.Ast.node with
      | Ast.Call (callee, actuals) ->
        let site =
          { Callgraph.caller = u.Ast.uname; callee; call_sid = s.Ast.sid;
            actuals }
        in
        let callee_summary = summaries callee in
        List.iter
          (fun (arr, acc) ->
            match translate_access cg tbl site arr acc with
            | Some (caller_array, acc) when visible caller_array ->
              (* widen over our enclosing loops: any of our loop ivs in
                 the translated sections become ranges *)
              let widen_sec sec =
                List.map
                  (fun s1 ->
                    match s1 with
                    | Star -> Star
                    | Point e -> dim_of_subscript ~allowed ~loops e
                    | Range (a, b) -> (
                      match
                        ( dim_of_subscript ~allowed ~loops a,
                          dim_of_subscript ~allowed ~loops b )
                      with
                      | Point a', Point b' -> Range (a', b')
                      | Range (a', _), Range (_, b') -> Range (a', b')
                      | Point a', Range (_, b') -> Range (a', b')
                      | Range (a', _), Point b' -> Range (a', b')
                      | _ -> Star))
                  sec
              in
              add_access table caller_array
                {
                  sec_w = Option.map widen_sec acc.sec_w;
                  sec_r = Option.map widen_sec acc.sec_r;
                }
            | _ -> ())
          (Option.value ~default:[] callee_summary);
        (* unknown callee: every array actual and COMMON array is Star *)
        if Option.is_none callee_summary then begin
          let star_for a =
            let rank = max 1 (List.length (Symbol.array_dims tbl a)) in
            let sec = List.init rank (fun _ -> Star) in
            add_access table a { sec_w = Some sec; sec_r = Some sec }
          in
          List.iter
            (fun e ->
              match e with
              | Ast.Var b | Ast.Index (b, _) ->
                if Symbol.is_array tbl b && visible b then star_for b
              | _ -> ())
            actuals;
          List.iter
            (fun (i : Symbol.info) ->
              if i.common <> None && Symbol.is_array tbl i.name then
                star_for i.name)
            (Symbol.infos tbl)
        end
      | _ -> ())
    u.Ast.body;
  Hashtbl.fold (fun a acc l -> (a, acc) :: l) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Every unit gets an entry: a callee without one is unknown. *)
let compute ?base (cg : Callgraph.t) : t =
  Propagate.run ?base Propagate.Callees_first ~equal:( = )
    ~solve:(fun find u -> Some (unit_summary cg find u))
    cg

let solved = Propagate.solved

let summary_of t name = Option.value ~default:[] (Propagate.find t name)

let star_expr = Ast.Index ("%STAR", [])

let section_to_subs (sec : section) : Ast.expr list option =
  Some
    (List.map
       (function
         | Point e -> e
         | Range _ | Star -> star_expr)
       sec)

let call_refs t ~(site : Callgraph.site) ~tbl :
    (string * Ast.expr list option * bool) list =
  match Propagate.find t site.Callgraph.callee with
  | Some callee_summary ->
    List.concat_map
      (fun (arr, acc) ->
        match translate_access (Propagate.graph t) tbl site arr acc with
        | None -> []
        | Some (caller_array, acc) ->
          let mk is_write sec =
            match sec with
            | None -> []
            | Some sec -> [ (caller_array, section_to_subs sec, is_write) ]
          in
          mk true acc.sec_w @ mk false acc.sec_r)
      callee_summary
  | None ->
    (* unknown callee: whole-array effects on array actuals and COMMONs *)
    let arrays =
      List.filter_map
        (fun e ->
          match e with
          | Ast.Var b | Ast.Index (b, _) ->
            if Symbol.is_array tbl b then Some b else None
          | _ -> None)
        site.Callgraph.actuals
      @ List.filter_map
          (fun (i : Symbol.info) ->
            if i.common <> None && Symbol.is_array tbl i.name then Some i.name
            else None)
          (Symbol.infos tbl)
      |> List.sort_uniq String.compare
    in
    List.concat_map (fun a -> [ (a, None, true); (a, None, false) ]) arrays
