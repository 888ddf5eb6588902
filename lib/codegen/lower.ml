(* AST + runtime Plan -> IR.

   Lowering is where every Fortran binding and conversion rule is
   decided, so backends stay dumb: implicit typing (via [Symbol]),
   array-vs-call disambiguation, value coercions on assignment and
   argument passing, trip-count arithmetic domain, by-reference
   argument classification, COMMON unification across units, and the
   projection of each PARALLEL DO's [Runtime.Plan.t] onto typed
   storage.

   Anything outside the compilable subset returns [Error] (via
   {!Unsupported}) rather than producing wrong code: GOTO, recursive
   call graphs, type-mismatched by-reference argument passing,
   arguments aliasing an element and the whole of one array in the
   same call, COMMONs declared with conflicting shapes, string values
   outside PRINT.  The interpreter remains the fallback for those. *)

open Fortran_front
module Plan = Runtime.Plan

exception Unsupported of string

let unsup fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let ty_of_ast = function
  | Ast.Tinteger -> Ir.Tint
  | Ast.Treal | Ast.Tdouble -> Ir.Treal
  | Ast.Tlogical -> Ir.Tbool

type uctx = {
  u : Ast.program_unit;
  tbl : Symbol.table;
  units : (string, Ast.program_unit * Symbol.table) Hashtbl.t;
  plans : (Ast.stmt_id, Plan.t) Hashtbl.t;
  commons : (string, Ir.vdef) Hashtbl.t;  (* global, first decl wins *)
}

let scalar_ty ctx v = ty_of_ast (Symbol.typ_of ctx.tbl v)

let lookup_kind ctx v =
  match Symbol.lookup ctx.tbl v with
  | Some i -> Some i.Symbol.kind
  | None -> None

(* ------------------------------------------------------------------ *)
(* Conversions (the simulator's Value.to_float/to_int/to_bool)         *)
(* ------------------------------------------------------------------ *)

let cvt (want : Ir.ty) (e, (have : Ir.ty)) : Ir.expr =
  if want = have then e
  else
    match (have, want) with
    | Ir.Tstr, _ | _, Ir.Tstr -> unsup "string value used as a %s"
                                   (Ir.ty_to_string want)
    | _ -> Ir.Ecvt (have, want, e)

let to_float te = cvt Ir.Treal te
let to_int te = cvt Ir.Tint te
let to_bool te = cvt Ir.Tbool te

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec lower_expr ctx (e : Ast.expr) : Ir.expr * Ir.ty =
  match e with
  | Ast.Int n -> (Ir.Eint n, Ir.Tint)
  | Ast.Real f -> (Ir.Ereal f, Ir.Treal)
  | Ast.Logic b -> (Ir.Ebool b, Ir.Tbool)
  | Ast.Str s -> (Ir.Estr s, Ir.Tstr)
  | Ast.Var v -> (
    match lookup_kind ctx v with
    | Some Symbol.Scalar -> (Ir.Eload v, scalar_ty ctx v)
    | Some (Symbol.Array _) -> unsup "array %s used as a scalar value" v
    | _ -> unsup "%s has no storage in %s" v ctx.u.Ast.uname)
  | Ast.Index (b, args) -> (
    match lookup_kind ctx b with
    | Some (Symbol.Array _) ->
      let idxs = List.map (fun a -> to_int (lower_expr ctx a)) args in
      (Ir.Eaload (b, idxs), scalar_ty ctx b)
    | Some Symbol.Intrinsic -> lower_intrinsic ctx b args
    | Some Symbol.External_fun -> (
      match Hashtbl.find_opt ctx.units b with
      | Some (cu, ctbl) ->
        let formals =
          match cu.Ast.kind with
          | Ast.Function (_, fs) -> fs
          | _ -> unsup "%s is not a function" b
        in
        let cargs = lower_args ctx (cu, ctbl) formals args in
        (Ir.Ecall (b, cargs, ty_of_ast (Symbol.typ_of ctbl b)),
         ty_of_ast (Symbol.typ_of ctbl b))
      | None -> unsup "unknown function %s" b)
    | _ -> unsup "cannot evaluate %s(...)" b)
  | Ast.Un (Ast.Neg, a) -> (
    let (ea, ta) = lower_expr ctx a in
    match ta with
    | Ir.Tint | Ir.Treal -> (Ir.Eneg (ta, ea), ta)
    | _ -> unsup "cannot negate a %s value" (Ir.ty_to_string ta))
  | Ast.Un (Ast.Not, a) ->
    (Ir.Enot (to_bool (lower_expr ctx a)), Ir.Tbool)
  | Ast.Bin ((Ast.And | Ast.Or) as op, a, b) ->
    ( Ir.Ebin
        (op, Ir.Tbool, to_bool (lower_expr ctx a), to_bool (lower_expr ctx b)),
      Ir.Tbool )
  | Ast.Bin ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow) as op, a, b) ->
    let ((_, ta) as la) = lower_expr ctx a in
    let ((_, tb) as lb) = lower_expr ctx b in
    let bad t = t = Ir.Tbool || t = Ir.Tstr in
    if bad ta || bad tb then unsup "bad operands for arithmetic"
    else if ta = Ir.Tint && tb = Ir.Tint then
      (Ir.Ebin (op, Ir.Tint, fst la, fst lb), Ir.Tint)
    else (Ir.Ebin (op, Ir.Treal, to_float la, to_float lb), Ir.Treal)
  | Ast.Bin (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b)
    ->
    (* the interpreter compares everything through float conversion *)
    ( Ir.Ebin
        (op, Ir.Treal, to_float (lower_expr ctx a), to_float (lower_expr ctx b)),
      Ir.Tbool )

and lower_intrinsic ctx name args : Ir.expr * Ir.ty =
  let ls () = List.map (lower_expr ctx) args in
  let one () =
    match ls () with [ v ] -> v | _ -> unsup "%s expects one argument" name
  in
  let two () =
    match ls () with
    | [ a; b ] -> (a, b)
    | _ -> unsup "%s expects two arguments" name
  in
  let fl1 i = (Ir.Eintr (i, [ to_float (one ()) ]), Ir.Treal) in
  match name with
  | "ABS" -> (
    match one () with
    | (e, Ir.Tint) -> (Ir.Eintr (Ir.Iabs Ir.Tint, [ e ]), Ir.Tint)
    | te -> (Ir.Eintr (Ir.Iabs Ir.Treal, [ to_float te ]), Ir.Treal))
  | "MOD" -> (
    match two () with
    | (ea, Ir.Tint), (eb, Ir.Tint) ->
      (Ir.Eintr (Ir.Imod Ir.Tint, [ ea; eb ]), Ir.Tint)
    | ta, tb ->
      (Ir.Eintr (Ir.Imod Ir.Treal, [ to_float ta; to_float tb ]), Ir.Treal))
  | "MAX" | "MIN" -> (
    match ls () with
    | [] -> unsup "%s expects arguments" name
    | vs ->
      let all_int = List.for_all (fun (_, t) -> t = Ir.Tint) vs in
      let rty = if all_int then Ir.Tint else Ir.Treal in
      let i = if name = "MAX" then Ir.Imax rty else Ir.Imin rty in
      (Ir.Eintr (i, List.map to_float vs), rty))
  | "SQRT" -> fl1 Ir.Isqrt
  | "EXP" -> fl1 Ir.Iexp
  | "LOG" -> fl1 Ir.Ilog
  | "SIN" -> fl1 Ir.Isin
  | "COS" -> fl1 Ir.Icos
  | "TAN" -> fl1 Ir.Itan
  | "FLOAT" | "DBLE" | "SNGL" -> (to_float (one ()), Ir.Treal)
  | "INT" -> (to_int (one ()), Ir.Tint)
  | "NINT" -> (Ir.Eintr (Ir.Inint, [ to_float (one ()) ]), Ir.Tint)
  | "SIGN" ->
    let (a, b) = two () in
    let rty = if snd a = Ir.Tint then Ir.Tint else Ir.Treal in
    (Ir.Eintr (Ir.Isign rty, [ to_float a; to_float b ]), rty)
  | _ -> unsup "unknown intrinsic %s" name

(* ------------------------------------------------------------------ *)
(* Argument binding                                                    *)
(* ------------------------------------------------------------------ *)

and lower_args ctx ((cu : Ast.program_unit), ctbl) formals actuals :
    Ir.arg list =
  let elem_ty_of tbl v = ty_of_ast (Symbol.typ_of tbl v) in
  let bind formal actual : Ir.arg =
    let formal_is_array = Symbol.is_array ctbl formal in
    let fty = elem_ty_of ctbl formal in
    match actual with
    | Ast.Var v -> (
      match lookup_kind ctx v with
      | Some Symbol.Scalar ->
        if formal_is_array then
          unsup "scalar %s passed to array formal %s of %s" v formal
            cu.Ast.uname
        else if scalar_ty ctx v <> fty then
          unsup "type mismatch passing %s to %s of %s (by-reference)" v
            formal cu.Ast.uname
        else Ir.Ascalar v
      | Some (Symbol.Array _) ->
        if not formal_is_array then
          unsup "array %s passed to scalar formal %s of %s" v formal
            cu.Ast.uname
        else if scalar_ty ctx v <> fty then
          unsup "element-type mismatch passing %s to %s of %s" v formal
            cu.Ast.uname
        else Ir.Aarray v
      | _ -> unsup "%s has no storage in %s" v ctx.u.Ast.uname)
    | Ast.Index (b, idxs) when Symbol.is_array ctx.tbl b ->
      let idxs = List.map (fun a -> to_int (lower_expr ctx a)) idxs in
      if scalar_ty ctx b <> fty then
        unsup "element-type mismatch passing %s(...) to %s of %s" b formal
          cu.Ast.uname
      else
        Ir.Aelem (b, idxs, if formal_is_array then Ir.Mview else Ir.Mcopy)
    | e ->
      if formal_is_array then
        unsup "expression passed to array formal %s of %s" formal cu.Ast.uname
      else Ir.Atemp (cvt fty (lower_expr ctx e), fty)
  in
  let rec go fs acts =
    match (fs, acts) with
    | [], _ -> []  (* extra actuals are ignored, as in the interpreter *)
    | f :: fs, a :: acts -> bind f a :: go fs acts
    | f :: _, [] -> unsup "missing actual argument for %s" f
  in
  let args = go formals actuals in
  (* By-reference hazards: the interpreter binds an array element to a
     scalar formal as an alias of the cell; we compile it as
     copy-in/copy-out.  That is only faithful when nothing else can
     reach the same cell while the callee runs, so reject the cases
     where aliasing could be observed. *)
  let copies =
    List.filter_map (function Ir.Aelem (b, _, Ir.Mcopy) -> Some b | _ -> None)
      args
  in
  if copies <> [] then begin
    List.iter
      (fun b ->
        (* the same array reachable inside the callee, whole or view *)
        if
          List.exists
            (function
              | Ir.Aarray v | Ir.Aelem (v, _, Ir.Mview) -> v = b
              | _ -> false)
            args
        then unsup "element of %s and the array itself passed in one call" b;
        (* a COMMON array is reachable inside the callee by name *)
        (match Symbol.lookup ctx.tbl b with
        | Some { Symbol.common = Some _; _ } ->
          unsup "element of COMMON array %s passed to a scalar formal" b
        | _ -> ()))
      copies;
    (* two elements of one array: aliased cells if the subscripts
       coincide at run time *)
    let sorted = List.sort String.compare copies in
    let rec dup = function
      | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
      | _ -> None
    in
    (match dup sorted with
    | Some b -> unsup "two elements of %s passed to scalar formals" b
    | None -> ());
    (* a later effectful argument could rewrite the element between our
       copy-in and the call (the interpreter's alias would see it) *)
    let effectful_arg = function
      | Ir.Atemp (e, _) -> Ir.effectful e
      | Ir.Aelem (_, idxs, _) -> List.exists Ir.effectful idxs
      | Ir.Ascalar _ | Ir.Aarray _ -> false
    in
    if List.exists effectful_arg args then
      unsup "element-to-scalar argument mixed with a call in the same \
             argument list"
  end;
  args

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let lower_plan ctx (h : Ast.do_header) (plan : Plan.t) body_has_output :
    Ir.par =
  let is_scalar v =
    match lookup_kind ctx v with Some Symbol.Scalar -> true | _ -> false
  in
  let is_array v =
    match lookup_kind ctx v with Some (Symbol.Array _) -> true | _ -> false
  in
  {
    Ir.pp_privates =
      List.filter_map
        (fun v ->
          if is_scalar v && v <> h.Ast.dvar then Some (v, scalar_ty ctx v)
          else None)
        plan.Plan.p_privates;
    pp_inductions =
      List.filter_map
        (fun (v, stride) ->
          if is_scalar v then Some (v, scalar_ty ctx v, stride) else None)
        plan.Plan.p_inductions;
    pp_reductions =
      List.filter_map
        (fun (v, op) ->
          if is_scalar v then Some (v, scalar_ty ctx v, op) else None)
        plan.Plan.p_reductions;
    pp_arrays = List.filter is_array plan.Plan.p_arrays;
    pp_has_output = body_has_output;
  }

(* Conservative: may the body produce PRINT output (directly or
   through any call — callees can print)? *)
let rec block_has_output ctx stmts =
  List.exists (stmt_has_output ctx) stmts

and stmt_has_output ctx (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Print _ | Ast.Call _ -> true
  | Ast.If (bs, els) ->
    List.exists (fun (c, b) -> expr_calls ctx c || block_has_output ctx b) bs
    || block_has_output ctx els
  | Ast.Do (h, body) ->
    expr_calls ctx h.Ast.lo || expr_calls ctx h.Ast.hi
    || (match h.Ast.step with Some e -> expr_calls ctx e | None -> false)
    || block_has_output ctx body
  | Ast.Assign (lhs, rhs) -> expr_calls ctx lhs || expr_calls ctx rhs
  | _ -> false

and expr_calls ctx e =
  Ast.fold_expr
    (fun acc e ->
      acc
      ||
      match e with
      | Ast.Index (b, _) -> (
        match lookup_kind ctx b with
        | Some Symbol.External_fun -> true
        | _ -> false)
      | _ -> false)
    false e

let rec lower_stmt ctx (s : Ast.stmt) : Ir.stmt list =
  match s.Ast.node with
  | Ast.Continue -> []
  | Ast.Goto l -> unsup "GOTO %d (unstructured control flow)" l
  | Ast.Return -> [ Ir.Sreturn ]
  | Ast.Stop -> [ Ir.Sstop ]
  | Ast.Assign (lhs, rhs) -> (
    let lr = lower_expr ctx rhs in
    match lhs with
    | Ast.Var name -> (
      match lookup_kind ctx name with
      | Some Symbol.Scalar ->
        [ Ir.Sassign (name, cvt (scalar_ty ctx name) lr) ]
      | _ -> unsup "cannot assign whole array %s" name)
    | Ast.Index (b, idxs) when Symbol.is_array ctx.tbl b ->
      let idxs = List.map (fun a -> to_int (lower_expr ctx a)) idxs in
      [ Ir.Sastore (b, idxs, cvt (scalar_ty ctx b) lr) ]
    | _ -> unsup "bad assignment target")
  | Ast.Print args ->
    [ Ir.Sprint
        (List.map
           (fun a ->
             match lower_expr ctx a with
             | Ir.Estr s, _ -> Ir.Pstr s
             | (e, t) -> Ir.Pexpr (e, t))
           args) ]
  | Ast.If (branches, els) ->
    [ Ir.Sif
        ( List.map
            (fun (c, body) ->
              (to_bool (lower_expr ctx c), lower_block ctx body))
            branches,
          lower_block ctx els ) ]
  | Ast.Call (name, args) -> (
    match Hashtbl.find_opt ctx.units name with
    | Some ((cu, _) as callee) ->
      let formals =
        match cu.Ast.kind with
        | Ast.Subroutine fs -> fs
        | Ast.Function (_, fs) -> fs
        | Ast.Main -> unsup "cannot CALL the main program"
      in
      [ Ir.Scall (name, lower_args ctx callee formals args) ]
    | None -> unsup "unknown subroutine %s" name)
  | Ast.Do (h, body) ->
    let iv_kind = lookup_kind ctx h.Ast.dvar in
    (match iv_kind with
    | Some Symbol.Scalar -> ()
    | _ -> unsup "loop variable %s is not a scalar" h.Ast.dvar);
    let lo = lower_expr ctx h.Ast.lo in
    let hi = lower_expr ctx h.Ast.hi in
    let step =
      match h.Ast.step with
      | None -> (Ir.Eint 1, Ir.Tint)
      | Some e -> lower_expr ctx e
    in
    let num (_, t) = t = Ir.Tint || t = Ir.Treal in
    if not (num lo && num hi && num step) then
      unsup "non-numeric DO bounds for %s" h.Ast.dvar;
    let is_int = snd lo = Ir.Tint && snd hi = Ir.Tint && snd step = Ir.Tint in
    let doh =
      if is_int then
        {
          Ir.d_iv = h.Ast.dvar;
          d_ivty = scalar_ty ctx h.Ast.dvar;
          d_lo = fst lo;
          d_hi = fst hi;
          d_step = fst step;
          d_float = false;
          d_sid = s.Ast.sid;
        }
      else
        {
          Ir.d_iv = h.Ast.dvar;
          d_ivty = scalar_ty ctx h.Ast.dvar;
          d_lo = to_float lo;
          d_hi = to_float hi;
          d_step = to_float step;
          d_float = true;
          d_sid = s.Ast.sid;
        }
    in
    let body' = lower_block ctx body in
    if h.Ast.parallel then begin
      let plan =
        match Hashtbl.find_opt ctx.plans s.Ast.sid with
        | Some p -> p
        | None -> Plan.trivial h.Ast.dvar
      in
      let pp = lower_plan ctx h plan (block_has_output ctx body) in
      [ Ir.Spar (doh, pp, body') ]
    end
    else [ Ir.Sdo (doh, body') ]

and lower_block ctx stmts = List.concat_map (lower_stmt ctx) stmts

(* ------------------------------------------------------------------ *)
(* Units, storage and COMMON unification                               *)
(* ------------------------------------------------------------------ *)

(* Array-geometry expressions are evaluated once at unit entry, after
   scalar seeding — only scalar loads, constants and arithmetic may
   appear (the runtime errs on anything fancier). *)
let check_entry_expr what e =
  let rec ok = function
    | Ir.Eint _ | Ir.Ereal _ | Ir.Ebool _ | Ir.Eload _ -> true
    | Ir.Ebin (_, _, a, b) -> ok a && ok b
    | Ir.Eneg (_, a) | Ir.Ecvt (_, _, a) -> ok a
    | Ir.Eintr (_, es) -> List.for_all ok es
    | _ -> false
  in
  if not (ok e) then unsup "unsupported %s expression" what;
  e

let lower_dims ctx ~formal name (dims : (Ast.expr * Ast.expr) list) : Ir.arr =
  let n = List.length dims in
  let one k (lo, hi) =
    let lo' =
      check_entry_expr "array bound" (to_int (lower_expr ctx lo))
    in
    let ext =
      match hi with
      | Ast.Int m when m = max_int ->
        if (not formal) || k < n - 1 then
          unsup "assumed-size dimension of %s outside a formal's last \
                 dimension"
            name
        else Ir.Xassumed
      | e ->
        let hi' =
          check_entry_expr "array bound" (to_int (lower_expr ctx e))
        in
        (* extent = max 1 (hi - lo + 1), the storage rule *)
        Ir.Xfixed
          (Ir.Ebin
             ( Ast.Add,
               Ir.Tint,
               Ir.Ebin (Ast.Sub, Ir.Tint, hi', lo'),
               Ir.Eint 1 ))
    in
    (lo', ext)
  in
  let lowered = List.mapi one dims in
  { Ir.a_lowers = List.map fst lowered; a_extents = List.map snd lowered }

let const_init ctx (i : Symbol.info) (ty : Ir.ty) : Ir.init =
  (* the runtime's seeding: integer PARAMETER value first, else a DATA
     literal, else zero — converted into the variable's type *)
  let of_value v =
    match (ty, v) with
    | Ir.Tint, `I n -> Ir.Iint n
    | Ir.Tint, `R f -> Ir.Iint (int_of_float (Float.trunc f))
    | Ir.Tint, `L b -> Ir.Iint (if b then 1 else 0)
    | Ir.Treal, `I n -> Ir.Ireal (float_of_int n)
    | Ir.Treal, `R f -> Ir.Ireal f
    | Ir.Treal, `L b -> Ir.Ireal (if b then 1.0 else 0.0)
    | Ir.Tbool, `I n -> Ir.Ibool (n <> 0)
    | Ir.Tbool, `R f -> Ir.Ibool (f <> 0.0)
    | Ir.Tbool, `L b -> Ir.Ibool b
    | Ir.Tstr, _ -> Ir.Inone
  in
  match Symbol.param_value ctx.tbl i.Symbol.name with
  | Some n -> of_value (`I n)
  | None -> (
    match i.Symbol.data with
    | Some (Ast.Int n) -> of_value (`I n)
    | Some (Ast.Real f) -> of_value (`R f)
    | Some (Ast.Logic l) -> of_value (`L l)
    | Some (Ast.Un (Ast.Neg, Ast.Int n)) -> of_value (`I (-n))
    | Some (Ast.Un (Ast.Neg, Ast.Real f)) -> of_value (`R (-.f))
    | Some _ | None -> Ir.Inone)

let formal_index (u : Ast.program_unit) name =
  let formals =
    match u.Ast.kind with
    | Ast.Main -> []
    | Ast.Subroutine fs | Ast.Function (_, fs) -> fs
  in
  let rec idx k = function
    | [] -> None
    | f :: _ when f = name -> Some k
    | _ :: fs -> idx (k + 1) fs
  in
  idx 0 formals

let register_common ctx (i : Symbol.info) (v : Ir.vdef) =
  match Hashtbl.find_opt ctx.commons i.Symbol.name with
  | None -> Hashtbl.replace ctx.commons i.Symbol.name v
  | Some prev ->
    (* every declaring unit must agree: the runtime allocates one
       buffer for the first shape it sees *)
    if prev.Ir.v_ty <> v.Ir.v_ty then
      unsup "COMMON %s declared with conflicting types" i.Symbol.name;
    let geom (d : Ir.vdef) =
      match d.Ir.v_arr with
      | None -> None
      | Some a ->
        Some
          (List.map
             (function
               | Ir.Xfixed (Ir.Eint n) -> n
               | _ -> -1)
             a.Ir.a_extents,
           List.map
             (function Ir.Eint n -> n | _ -> min_int)
             a.Ir.a_lowers)
    in
    if geom prev <> geom v then
      unsup "COMMON %s declared with conflicting shapes" i.Symbol.name

let lower_vdef ctx (i : Symbol.info) : Ir.vdef option =
  let name = i.Symbol.name in
  let ty = ty_of_ast i.Symbol.typ in
  match i.Symbol.kind with
  | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> None
  | Symbol.Scalar ->
    let place =
      if i.Symbol.formal then
        match formal_index ctx.u name with
        | Some k -> Ir.Pformal k
        | None -> Ir.Plocal
      else if i.Symbol.common <> None then Ir.Pcommon
      else Ir.Plocal
    in
    let v =
      {
        Ir.v_name = name;
        v_ty = ty;
        v_place = place;
        v_arr = None;
        v_init =
          (match place with
          | Ir.Plocal -> const_init ctx i ty
          | Ir.Pformal _ | Ir.Pcommon -> Ir.Inone);
      }
    in
    if place = Ir.Pcommon then register_common ctx i v;
    Some v
  | Symbol.Array dims ->
    let formal =
      i.Symbol.formal
      && match formal_index ctx.u name with Some _ -> true | None -> false
    in
    let place =
      if formal then
        match formal_index ctx.u name with
        | Some k -> Ir.Pformal k
        | None -> Ir.Plocal
      else if i.Symbol.common <> None then Ir.Pcommon
      else Ir.Plocal
    in
    let arr = lower_dims ctx ~formal name dims in
    (if place = Ir.Pcommon then begin
       (* COMMON geometry must be compile-time constant (runtime rule) *)
       let const_dims =
         List.map2
           (fun (lo, hi) l ->
             match
               (Symbol.const_eval ctx.tbl lo, Symbol.const_eval ctx.tbl hi)
             with
             | Some l', Some h' ->
               ignore l;
               (Ir.Eint l', Ir.Xfixed (Ir.Eint (h' - l' + 1)))
             | _ -> unsup "COMMON array %s needs constant bounds" name)
           dims arr.Ir.a_lowers
       in
       let carr =
         {
           Ir.a_lowers = List.map fst const_dims;
           a_extents = List.map snd const_dims;
         }
       in
       register_common ctx i
         {
           Ir.v_name = name;
           v_ty = ty;
           v_place = Ir.Pcommon;
           v_arr = Some carr;
           v_init = Ir.Inone;
         }
     end);
    Some
      {
        Ir.v_name = name;
        v_ty = ty;
        v_place = place;
        v_arr = Some arr;
        v_init = Ir.Inone;
      }

let lower_unit units plans commons (u : Ast.program_unit) : Ir.unitdef =
  let tbl = snd (Hashtbl.find units u.Ast.uname) in
  let ctx = { u; tbl; units; plans; commons } in
  let vars = List.filter_map (lower_vdef ctx) (Symbol.infos tbl) in
  (* every formal must have storage (passing procedures is unsupported) *)
  let formals =
    match u.Ast.kind with
    | Ast.Main -> []
    | Ast.Subroutine fs | Ast.Function (_, fs) -> fs
  in
  List.iter
    (fun f ->
      if
        not
          (List.exists
             (fun (v : Ir.vdef) ->
               v.Ir.v_name = f
               && match v.Ir.v_place with Ir.Pformal _ -> true | _ -> false)
             vars)
      then unsup "formal %s of %s has no data storage" f u.Ast.uname)
    formals;
  {
    Ir.u_name = u.Ast.uname;
    u_kind =
      (match u.Ast.kind with
      | Ast.Main -> Ir.Kmain
      | Ast.Subroutine _ -> Ir.Ksub
      | Ast.Function (t, _) -> Ir.Kfun (ty_of_ast t));
    u_formals = formals;
    u_vars = vars;
    u_body = lower_block ctx u.Ast.body;
  }

(* Static recursion check: generated code has no call-depth guard, so
   reject call-graph cycles up front (the interpreter errs at depth
   200; real suite programs are DAGs). *)
let check_acyclic (p : Ast.program) units =
  let calls_of (u : Ast.program_unit) =
    let tbl = snd (Hashtbl.find units u.Ast.uname) in
    let acc = ref [] in
    Ast.iter_stmts
      (fun s ->
        (match s.Ast.node with
        | Ast.Call (n, _) -> acc := n :: !acc
        | _ -> ());
        List.iter
          (fun e ->
            Ast.fold_expr
              (fun () e ->
                match e with
                | Ast.Index (b, _) -> (
                  match Symbol.lookup tbl b with
                  | Some { Symbol.kind = Symbol.External_fun; _ } ->
                    acc := b :: !acc
                  | _ -> ())
                | _ -> ())
              () e)
          (Ast.stmt_exprs s.Ast.node))
      u.Ast.body;
    !acc
  in
  let visiting = Hashtbl.create 8 and done_ = Hashtbl.create 8 in
  let rec visit name =
    if Hashtbl.mem done_ name then ()
    else if Hashtbl.mem visiting name then
      unsup "recursive call graph through %s" name
    else begin
      Hashtbl.replace visiting name ();
      (match Hashtbl.find_opt units name with
      | Some (u, _) -> List.iter visit (calls_of u)
      | None -> ());
      Hashtbl.remove visiting name;
      Hashtbl.replace done_ name ()
    end
  in
  List.iter (fun (u : Ast.program_unit) -> visit u.Ast.uname) p.Ast.punits

let program (p : Ast.program) : (Ir.program, string) result =
  try
    let units = Hashtbl.create 8 in
    List.iter
      (fun (u : Ast.program_unit) ->
        Hashtbl.replace units u.Ast.uname (u, Symbol.build u))
      p.Ast.punits;
    let main =
      match
        List.find_opt (fun u -> u.Ast.kind = Ast.Main) p.Ast.punits
      with
      | Some u -> u
      | None -> unsup "no main program unit"
    in
    check_acyclic p units;
    let plans = Plan.build p in
    let commons = Hashtbl.create 8 in
    let udefs =
      List.map (lower_unit units plans commons) p.Ast.punits
    in
    let cdefs =
      Hashtbl.fold (fun _ v acc -> v :: acc) commons []
      |> List.sort (fun (a : Ir.vdef) b ->
             String.compare a.Ir.v_name b.Ir.v_name)
    in
    Ok { Ir.p_units = udefs; p_main = main.Ast.uname; p_commons = cdefs }
  with Unsupported msg -> Error msg
