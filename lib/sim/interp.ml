open Fortran_front
open Value

exception Runtime_error of string

type order = Seq | Reverse | Shuffled of int

type access = {
  a_sid : Ast.stmt_id;
  a_var : string;
  a_off : int;
  a_write : bool;
  a_instance : int;
  a_iters : (Ast.stmt_id * int) list;
}

type outcome = {
  output : string list;
  cycles : float;
  stmts_executed : int;
  final_store : (string * float list) list;
  loop_cycles : (Ast.stmt_id * float) list;
}

type conflict_kind = Flow | Anti | Output

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type unit_info = { u : Ast.program_unit; tbl : Symbol.table }

type frame = (string, Store.slot) Hashtbl.t

type signal = Snormal | Sgoto of int | Sreturn | Sstop

type ops = {
  mutable o_flops : int;
  mutable o_mems : int;
  mutable o_intr : int;
  mutable o_iters : int;
  mutable o_calls : int;
}

let fresh_ops () =
  { o_flops = 0; o_mems = 0; o_intr = 0; o_iters = 0; o_calls = 0 }

type parallel =
  | Sequential
  | Simulated of order
  | Validated of validator
  | Runner of (par_loop -> signal)

and validator = {
  excluded : par_loop -> string list;
  conflict :
    Ast.stmt_id -> string -> conflict_kind -> int -> int -> int -> unit;
}

(* Shared by every context of one run. *)
and global = {
  units : (string, unit_info) Hashtbl.t;
  commons : (string, Store.slot) Hashtbl.t;
      (* allocated before execution starts: contexts only read this
         table, so callee frames can be built on any domain *)
  parallel : parallel;
  machine : Perf.Machine.t option;  (* Some: the simulated clock runs *)
  trace : (access -> unit) option;
  max_steps : int;
  steps : int Atomic.t;
  loop_cycles : (Ast.stmt_id, float) Hashtbl.t;  (* only with a clock *)
  mutable epoch : int;  (* validator epoch; validation is sequential *)
}

(* Per-domain execution context.  A run has one; a runner forks one
   per worker domain, so the only shared mutable state during a real
   parallel loop is the typed element buffers themselves. *)
and ctx = {
  g : global;
  mutable out_rev : string list;
  mutable depth : int;
  mutable in_parallel : bool;
  ops : ops;
  mutable clock : float;
  mutable cur_sid : Ast.stmt_id;
  mutable instance : int;  (* statement instances, in execution order *)
  mutable loop_stack : (Ast.stmt_id * int) list;  (* innermost first *)
  mutable mon_iter : int;  (* >= 0 while inside a validated loop *)
  mutable mon_loop : Ast.stmt_id;
}

and par_loop = {
  ctx : ctx;
  ui : unit_info;
  frame : frame;
  stmt : Ast.stmt;
  header : Ast.do_header;
  body : Ast.stmt list;
  trip : int;
  value_at : int -> value;
  iv_cell : Store.cell;
}

let new_ctx g ~depth ~in_parallel =
  {
    g;
    out_rev = [];
    depth;
    in_parallel;
    ops = fresh_ops ();
    clock = 0.0;
    cur_sid = -1;
    instance = 0;
    loop_stack = [];
    mon_iter = -1;
    mon_loop = -1;
  }

let fork st = new_ctx st.g ~depth:st.depth ~in_parallel:true

let take_output st =
  let lines = List.rev st.out_rev in
  st.out_rev <- [];
  lines

let emit st lines = List.iter (fun l -> st.out_rev <- l :: st.out_rev) lines

let add_ops st w =
  let d = st.ops and s = w.ops in
  d.o_flops <- d.o_flops + s.o_flops;
  d.o_mems <- d.o_mems + s.o_mems;
  d.o_intr <- d.o_intr + s.o_intr;
  d.o_iters <- d.o_iters + s.o_iters;
  d.o_calls <- d.o_calls + s.o_calls

(* ------------------------------------------------------------------ *)
(* Instrumented element access                                         *)
(* ------------------------------------------------------------------ *)

let record_access st ~var ~off ~write =
  match st.g.trace with
  | None -> ()
  | Some f ->
    f
      {
        a_sid = st.cur_sid;
        a_var = var;
        a_off = off;
        a_write = write;
        a_instance = st.instance;
        a_iters = List.rev st.loop_stack;
      }

let conflict st var kind off other =
  match st.g.parallel with
  | Validated v ->
    v.conflict st.mon_loop var kind off (min other st.mon_iter)
      (max other st.mon_iter)
  | Sequential | Simulated _ | Runner _ -> ()

(* shadow stamps, only while a validated loop runs *)
let note_read st var (b : Store.buf) off =
  if st.mon_iter >= 0 && b.Store.excl_epoch <> st.g.epoch then begin
    let sh = Store.shadow_of b in
    if sh.Store.w_ep.(off) = st.g.epoch && sh.Store.w_it.(off) <> st.mon_iter
    then conflict st var Flow off sh.Store.w_it.(off);
    sh.Store.r_ep.(off) <- st.g.epoch;
    sh.Store.r_it.(off) <- st.mon_iter
  end

let note_write st var (b : Store.buf) off =
  if st.mon_iter >= 0 && b.Store.excl_epoch <> st.g.epoch then begin
    let sh = Store.shadow_of b in
    if sh.Store.r_ep.(off) = st.g.epoch && sh.Store.r_it.(off) <> st.mon_iter
    then conflict st var Anti off sh.Store.r_it.(off);
    if sh.Store.w_ep.(off) = st.g.epoch && sh.Store.w_it.(off) <> st.mon_iter
    then conflict st var Output off sh.Store.w_it.(off);
    sh.Store.w_ep.(off) <- st.g.epoch;
    sh.Store.w_it.(off) <- st.mon_iter
  end

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let find_slot (ui : unit_info) (frame : frame) v : Store.slot =
  match Hashtbl.find_opt frame v with
  | Some s -> s
  | None -> (
    (* late creation: undeclared scalar local *)
    match Symbol.lookup ui.tbl v with
    | Some { kind = Symbol.Scalar; typ; param; _ } ->
      let b = Store.alloc typ 1 in
      (match param with
      | Some _ -> (
        match Symbol.param_value ui.tbl v with
        | Some n -> Store.set b 0 (VI n)
        | None -> ())
      | None -> ());
      let s = Store.Scalar { Store.cbuf = b; coff = 0 } in
      Hashtbl.replace frame v s;
      s
    | _ -> err "variable %s has no storage in %s" v ui.u.Ast.uname)

let charge st ui exprs extra =
  match st.g.machine with
  | None -> ()
  | Some m ->
    let cost =
      List.fold_left
        (fun acc e -> acc +. Perf.Estimator.expr_cost m ui.tbl e)
        (extra m) exprs
    in
    st.clock <- st.clock +. cost

let mem_cost m = m.Perf.Machine.mem_cost
let call_overhead m = m.Perf.Machine.call_overhead

(* give planned scalars storage in the loop's frame now *)
let ensure l names =
  List.iter
    (fun name ->
      try ignore (find_slot l.ui l.frame name) with Runtime_error _ -> ())
    names

(* the processor the machine's schedule gives iteration [k] of [trip] *)
let processor m trip k =
  let p = m.Perf.Machine.processors in
  match m.Perf.Machine.schedule with
  | Perf.Machine.Block ->
    let chunk = (trip + p - 1) / max p 1 in
    if chunk = 0 then 0 else min (p - 1) (k / max chunk 1)
  | Perf.Machine.Cyclic -> k mod max p 1

(* the iteration indices [0, trip) in [order] *)
let permutation order trip =
  let a = Array.init trip Fun.id in
  (match order with
  | Seq -> ()
  | Reverse ->
    for i = 0 to (trip / 2) - 1 do
      let t = a.(i) in
      a.(i) <- a.(trip - 1 - i);
      a.(trip - 1 - i) <- t
    done
  | Shuffled seed ->
    let rstate = Random.State.make [| seed |] in
    for i = trip - 1 downto 1 do
      let j = Random.State.int rstate (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done);
  a

let rec eval st ui frame (e : Ast.expr) : value =
  match e with
  | Ast.Int n -> VI n
  | Ast.Real f -> VR f
  | Ast.Logic b -> VL b
  | Ast.Str s -> VS s
  | Ast.Var v -> (
    match find_slot ui frame v with
    | Store.Scalar c ->
      st.ops.o_mems <- st.ops.o_mems + 1;
      note_read st v c.Store.cbuf c.Store.coff;
      Store.get_cell c
    | Store.Arr _ -> err "array %s used as a scalar value" v)
  | Ast.Index (b, args) -> (
    match Symbol.lookup ui.tbl b with
    | Some { kind = Symbol.Array _; _ } -> (
      let idxs = List.map (fun a -> to_int (eval st ui frame a)) args in
      match find_slot ui frame b with
      | Store.Arr a ->
        let off = Store.offset a idxs in
        st.ops.o_mems <- st.ops.o_mems + 1;
        record_access st ~var:b ~off ~write:false;
        note_read st b a.Store.abuf off;
        Store.get a.Store.abuf off
      | Store.Scalar _ -> err "%s is not an array" b)
    | Some { kind = Symbol.Intrinsic; _ } -> eval_intrinsic st ui frame b args
    | Some { kind = Symbol.External_fun; _ } ->
      eval_function_call st ui frame b args
    | _ -> err "cannot evaluate %s(...)" b)
  | Ast.Un (Ast.Neg, a) -> (
    match eval st ui frame a with
    | VI n -> VI (-n)
    | VR f -> VR (-.f)
    | v -> err "cannot negate %s" (Format.asprintf "%a" pp_value v))
  | Ast.Un (Ast.Not, a) -> VL (not (to_bool (eval st ui frame a)))
  | Ast.Bin (op, a, b) -> (
    match op with
    | Ast.And -> VL (to_bool (eval st ui frame a) && to_bool (eval st ui frame b))
    | Ast.Or -> VL (to_bool (eval st ui frame a) || to_bool (eval st ui frame b))
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow ->
      st.ops.o_flops <- st.ops.o_flops + 1;
      arith op (eval st ui frame a) (eval st ui frame b)
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
      st.ops.o_flops <- st.ops.o_flops + 1;
      compare_vals op (eval st ui frame a) (eval st ui frame b))

and arith op a b =
  match (a, b) with
  | VI x, VI y -> (
    match op with
    | Ast.Add -> VI (x + y)
    | Ast.Sub -> VI (x - y)
    | Ast.Mul -> VI (x * y)
    | Ast.Div -> if y = 0 then err "integer division by zero" else VI (x / y)
    | Ast.Pow ->
      if y < 0 then VI 0
      else VI (int_of_float (Float.round (float_of_int x ** float_of_int y)))
    | _ -> assert false)
  | (VI _ | VR _), (VI _ | VR _) -> (
    let x = to_float a and y = to_float b in
    match op with
    | Ast.Add -> VR (x +. y)
    | Ast.Sub -> VR (x -. y)
    | Ast.Mul -> VR (x *. y)
    | Ast.Div -> VR (x /. y)
    | Ast.Pow -> VR (x ** y)
    | _ -> assert false)
  | _ -> err "bad operands for arithmetic"

and compare_vals op a b =
  let x = to_float a and y = to_float b in
  let r =
    match op with
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
    | Ast.Eq -> x = y
    | Ast.Ne -> x <> y
    | _ -> assert false
  in
  VL r

and eval_intrinsic st ui frame name args : value =
  st.ops.o_intr <- st.ops.o_intr + 1;
  let vs () = List.map (eval st ui frame) args in
  let one () =
    match vs () with [ v ] -> v | _ -> err "%s expects one argument" name
  in
  let two () =
    match vs () with
    | [ a; b ] -> (a, b)
    | _ -> err "%s expects two arguments" name
  in
  match name with
  | "ABS" -> (
    match one () with VI n -> VI (abs n) | v -> VR (Float.abs (to_float v)))
  | "MOD" -> (
    match two () with
    | VI a, VI b -> if b = 0 then err "MOD by zero" else VI (a mod b)
    | a, b -> VR (Float.rem (to_float a) (to_float b)))
  | "MAX" | "MIN" -> (
    let vs = vs () in
    let all_int = List.for_all (function VI _ -> true | _ -> false) vs in
    let sel = if name = "MAX" then Float.max else Float.min in
    let r = List.fold_left (fun acc v -> sel acc (to_float v))
        (to_float (List.hd vs)) (List.tl vs)
    in
    if all_int then VI (int_of_float r) else VR r)
  | "SQRT" -> VR (sqrt (to_float (one ())))
  | "EXP" -> VR (exp (to_float (one ())))
  | "LOG" -> VR (log (to_float (one ())))
  | "SIN" -> VR (sin (to_float (one ())))
  | "COS" -> VR (cos (to_float (one ())))
  | "TAN" -> VR (tan (to_float (one ())))
  | "FLOAT" | "DBLE" | "SNGL" -> VR (to_float (one ()))
  | "INT" -> VI (to_int (one ()))
  | "NINT" -> VI (int_of_float (Float.round (to_float (one ()))))
  | "SIGN" -> (
    match two () with
    | a, b ->
      let m = Float.abs (to_float a) in
      let r = if to_float b < 0.0 then -.m else m in
      (match a with VI _ -> VI (int_of_float r) | _ -> VR r))
  | _ -> err "unknown intrinsic %s" name

(* ------------------------------------------------------------------ *)
(* Frames and calls                                                    *)
(* ------------------------------------------------------------------ *)

and build_frame st (ui : unit_info) (bindings : (string * Store.slot) list) :
    frame =
  let frame : frame = Hashtbl.create 16 in
  List.iter (fun (n, s) -> Hashtbl.replace frame n s) bindings;
  let common_slot name =
    match Hashtbl.find_opt st.g.commons name with
    | Some s -> s
    | None -> err "COMMON variable %s was not pre-allocated" name
  in
  (* pass 1: scalars (parameters seeded), so array dims can use them *)
  List.iter
    (fun (i : Symbol.info) ->
      if not (Hashtbl.mem frame i.name) then
        match i.kind with
        | Symbol.Scalar ->
          if i.common <> None then
            Hashtbl.replace frame i.name (common_slot i.name)
          else begin
            let b = Store.alloc i.typ 1 in
            (match Symbol.param_value ui.tbl i.name with
            | Some n -> Store.set b 0 (VI n)
            | None -> (
              (* DATA initial value: literals only *)
              match i.data with
              | Some (Ast.Int n) -> Store.set b 0 (VI n)
              | Some (Ast.Real f) -> Store.set b 0 (VR f)
              | Some (Ast.Logic l) -> Store.set b 0 (VL l)
              | Some (Ast.Un (Ast.Neg, Ast.Int n)) -> Store.set b 0 (VI (-n))
              | Some (Ast.Un (Ast.Neg, Ast.Real f)) -> Store.set b 0 (VR (-.f))
              | Some _ | None -> ()));
            Hashtbl.replace frame i.name
              (Store.Scalar { Store.cbuf = b; coff = 0 })
          end
        | Symbol.Array _ | Symbol.Routine | Symbol.External_fun
        | Symbol.Intrinsic -> ())
    (Symbol.infos ui.tbl);
  (* pass 2: arrays (bounds may reference formals and parameters) *)
  List.iter
    (fun (i : Symbol.info) ->
      match i.kind with
      | Symbol.Array dims ->
        let bounds =
          List.map
            (fun (lo, hi) ->
              let lo = to_int (eval st ui frame lo) in
              let hi =
                match hi with
                | Ast.Int n when n = max_int ->
                  (* assumed-size: extent comes from the storage *)
                  max_int
                | e -> to_int (eval st ui frame e)
              in
              (lo, hi))
            dims
        in
        (match Hashtbl.find_opt frame i.name with
        | Some (Store.Arr view) ->
          (* formal array: reshape the passed storage to our bounds *)
          let bounds =
            (* resolve assumed-size final extent against storage *)
            match List.rev bounds with
            | (lo, hi) :: rest when hi = max_int ->
              let other =
                List.fold_left
                  (fun acc (l, h) -> acc * max 1 (h - l + 1))
                  1 rest
              in
              let avail = Store.length view.Store.abuf - view.Store.base in
              let extent = max 1 (avail / max 1 other) in
              List.rev ((lo, lo + extent - 1) :: rest)
            | _ -> bounds
          in
          Hashtbl.replace frame i.name (Store.Arr { view with Store.bounds })
        | Some (Store.Scalar _) -> ()
        | None ->
          if i.common <> None then
            Hashtbl.replace frame i.name (common_slot i.name)
          else begin
            let size =
              List.fold_left (fun acc (lo, hi) -> acc * max 1 (hi - lo + 1)) 1
                bounds
            in
            Hashtbl.replace frame i.name
              (Store.Arr { Store.abuf = Store.alloc i.typ size; base = 0; bounds })
          end)
      | Symbol.Scalar | Symbol.Routine | Symbol.External_fun
      | Symbol.Intrinsic -> ())
    (Symbol.infos ui.tbl);
  frame

and bind_actuals st caller_ui caller_frame (callee : unit_info)
    (formals : string list) (actuals : Ast.expr list) :
    (string * Store.slot) list =
  let bind formal actual =
    let formal_is_array = Symbol.is_array callee.tbl formal in
    match actual with
    | Ast.Var v -> (formal, find_slot caller_ui caller_frame v)
    | Ast.Index (b, idxs) when Symbol.is_array caller_ui.tbl b -> (
      let idxs =
        List.map (fun a -> to_int (eval st caller_ui caller_frame a)) idxs
      in
      match find_slot caller_ui caller_frame b with
      | Store.Arr a ->
        let off = Store.offset a idxs in
        if formal_is_array then
          (* the callee sees storage starting at this element *)
          (formal, Store.Arr { Store.abuf = a.Store.abuf; base = off; bounds = [] })
        else (formal, Store.Scalar { Store.cbuf = a.Store.abuf; coff = off })
      | Store.Scalar _ -> err "%s is not an array" b)
    | e ->
      (* expression argument: pass a temporary *)
      let b = Store.alloc (Symbol.typ_of callee.tbl formal) 1 in
      Store.set b 0 (eval st caller_ui caller_frame e);
      (formal, Store.Scalar { Store.cbuf = b; coff = 0 })
  in
  let rec go fs acts =
    match (fs, acts) with
    | [], _ -> []
    | f :: fs, a :: acts -> bind f a :: go fs acts
    | f :: _, [] -> err "missing actual argument for %s" f
  in
  go formals actuals

and call_unit st (callee : unit_info) (bindings : (string * Store.slot) list) :
    frame =
  st.depth <- st.depth + 1;
  if st.depth > 200 then err "call depth exceeded (recursion?)";
  let frame = build_frame st callee bindings in
  let signal = exec_block st callee frame callee.u.Ast.body in
  (match signal with
  | Snormal | Sreturn -> ()
  | Sstop -> st.depth <- st.depth - 1; raise Exit
  | Sgoto l -> err "GOTO %d escapes %s" l callee.u.Ast.uname);
  st.depth <- st.depth - 1;
  frame

and eval_function_call st ui frame name args : value =
  match Hashtbl.find_opt st.g.units name with
  | Some callee -> (
    let formals =
      match callee.u.Ast.kind with
      | Ast.Function (_, fs) -> fs
      | _ -> err "%s is not a function" name
    in
    (match st.g.machine with
    | Some m -> st.clock <- st.clock +. m.Perf.Machine.call_overhead
    | None -> ());
    st.ops.o_calls <- st.ops.o_calls + 1;
    let bindings = bind_actuals st ui frame callee formals args in
    let callee_frame = call_unit st callee bindings in
    match Hashtbl.find_opt callee_frame name with
    | Some (Store.Scalar c) -> Store.get_cell c
    | _ -> err "function %s returned no value" name)
  | None -> err "unknown function %s (external functions must be supplied)" name

(* ------------------------------------------------------------------ *)
(* Statement execution                                                 *)
(* ------------------------------------------------------------------ *)

and exec_block st ui frame (stmts : Ast.stmt list) : signal =
  let arr = Array.of_list stmts in
  let n = Array.length arr in
  let rec from i : signal =
    if i >= n then Snormal
    else
      match exec_stmt st ui frame arr.(i) with
      | Snormal -> from (i + 1)
      | Sgoto l -> (
        (* a label in this block? (possibly behind us) *)
        match
          Array.to_list arr
          |> List.mapi (fun j s -> (j, s))
          |> List.find_opt (fun (_, (s : Ast.stmt)) -> s.Ast.label = Some l)
        with
        | Some (j, _) -> from j
        | None -> Sgoto l)
      | (Sreturn | Sstop) as s -> s
  in
  from 0

and exec_stmt st ui frame (s : Ast.stmt) : signal =
  if Atomic.fetch_and_add st.g.steps 1 >= st.g.max_steps then
    err "statement budget exhausted";
  st.cur_sid <- s.Ast.sid;
  st.instance <- st.instance + 1;
  match s.Ast.node with
  | Ast.Continue -> Snormal
  | Ast.Goto l -> Sgoto l
  | Ast.Return -> Sreturn
  | Ast.Stop -> Sstop
  | Ast.Assign (lhs, rhs) -> (
    charge st ui [ lhs; rhs ] mem_cost;
    let v = eval st ui frame rhs in
    match lhs with
    | Ast.Var name -> (
      match find_slot ui frame name with
      | Store.Scalar c ->
        st.ops.o_mems <- st.ops.o_mems + 1;
        note_write st name c.Store.cbuf c.Store.coff;
        Store.set_cell c v;
        Snormal
      | Store.Arr _ -> err "cannot assign whole array %s" name)
    | Ast.Index (b, idxs) -> (
      let idxs = List.map (fun a -> to_int (eval st ui frame a)) idxs in
      match find_slot ui frame b with
      | Store.Arr a ->
        let off = Store.offset a idxs in
        st.ops.o_mems <- st.ops.o_mems + 1;
        record_access st ~var:b ~off ~write:true;
        note_write st b a.Store.abuf off;
        Store.set a.Store.abuf off v;
        Snormal
      | Store.Scalar _ -> err "%s is not an array" b)
    | _ -> err "bad assignment target")
  | Ast.Print args ->
    charge st ui args (fun _ -> 10.0);
    let line = Abi.print_line (List.map (eval st ui frame) args) in
    st.out_rev <- line :: st.out_rev;
    Snormal
  | Ast.If (branches, els) -> (
    charge st ui (List.map fst branches) (fun _ -> 0.0);
    let rec pick = function
      | [] -> exec_block st ui frame els
      | (c, body) :: rest ->
        if to_bool (eval st ui frame c) then exec_block st ui frame body
        else pick rest
    in
    pick branches)
  | Ast.Call (name, args) -> (
    charge st ui args call_overhead;
    match Hashtbl.find_opt st.g.units name with
    | Some callee ->
      let formals =
        match callee.u.Ast.kind with
        | Ast.Subroutine fs -> fs
        | Ast.Function (_, fs) -> fs
        | Ast.Main -> err "cannot CALL the main program"
      in
      st.ops.o_calls <- st.ops.o_calls + 1;
      let bindings = bind_actuals st ui frame callee formals args in
      let _ = call_unit st callee bindings in
      Snormal
    | None -> err "unknown subroutine %s" name)
  | Ast.Do (h, body) -> (
    match st.g.machine with
    | None -> exec_do st ui frame s h body
    | Some _ ->
      let t0 = st.clock in
      let r = exec_do st ui frame s h body in
      let dt = st.clock -. t0 in
      Hashtbl.replace st.g.loop_cycles s.Ast.sid
        (dt
        +. Option.value ~default:0.0 (Hashtbl.find_opt st.g.loop_cycles s.Ast.sid));
      r)

and exec_do st ui frame (s : Ast.stmt) (h : Ast.do_header) body : signal =
  charge st ui ([ h.Ast.lo; h.Ast.hi ] @ Option.to_list h.Ast.step) (fun _ -> 0.0);
  let lo = eval st ui frame h.Ast.lo in
  let hi = eval st ui frame h.Ast.hi in
  let step =
    match h.Ast.step with None -> VI 1 | Some e -> eval st ui frame e
  in
  let is_int =
    match (lo, hi, step) with VI _, VI _, VI _ -> true | _ -> false
  in
  let iv_cell =
    match find_slot ui frame h.Ast.dvar with
    | Store.Scalar c -> c
    | Store.Arr _ -> err "loop variable %s is an array" h.Ast.dvar
  in
  let trip =
    if is_int then begin
      let l = to_int lo and hh = to_int hi and st_ = to_int step in
      if st_ = 0 then err "zero DO step";
      max 0 (((hh - l) + st_) / st_)
    end
    else begin
      let l = to_float lo and hh = to_float hi and st_ = to_float step in
      if st_ = 0.0 then err "zero DO step";
      max 0 (int_of_float (Float.trunc (((hh -. l) +. st_) /. st_)))
    end
  in
  let value_at k =
    if is_int then VI (to_int lo + (k * to_int step))
    else VR (to_float lo +. (float_of_int k *. to_float step))
  in
  (* F77: the DO variable receives its initial value even when the
     loop runs zero times *)
  Store.set_cell iv_cell (value_at 0);
  let l =
    { ctx = st; ui; frame; stmt = s; header = h; body; trip; value_at; iv_cell }
  in
  if not (h.Ast.parallel && not st.in_parallel) then sequential l
  else
    match st.g.parallel with
    | Sequential -> sequential l
    | Simulated order -> one_at_a_time l ~monitor:false (permutation order trip)
    | Validated v -> validated v l
    | Runner run -> if trip > 0 then run l else sequential l

and iteration st l frame (ivc : Store.cell) k : signal =
  Store.set_cell ivc (l.value_at k);
  st.ops.o_iters <- st.ops.o_iters + 1;
  (match st.g.machine with
  | Some m -> st.clock <- st.clock +. m.Perf.Machine.loop_overhead
  | None -> ());
  match st.g.trace with
  | None -> exec_block st l.ui frame l.body
  | Some _ ->
    st.loop_stack <- (l.stmt.Ast.sid, k) :: st.loop_stack;
    let r = exec_block st l.ui frame l.body in
    st.loop_stack <- List.tl st.loop_stack;
    r

and sequential l : signal =
  let rec go k =
    if k >= l.trip then begin
      (* normal completion: F77 leaves the DO variable at the first
         value that failed the iteration test *)
      Store.set_cell l.iv_cell (l.value_at l.trip);
      Snormal
    end
    else
      match iteration l.ctx l l.frame l.iv_cell k with
      | Snormal -> go (k + 1)
      | other -> other
  in
  go 0

(* A PARALLEL DO run one iteration at a time on this domain, in
   [order].  With a clock each iteration's cost lands in the bucket of
   the processor the machine's schedule gives it, and the loop costs
   fork/join plus the busiest processor; with [monitor] every access is
   stamped with its iteration number. *)
and one_at_a_time l ~monitor order : signal =
  let st = l.ctx in
  let buckets =
    match st.g.machine with
    | Some m -> Array.make (max m.Perf.Machine.processors 1) 0.0
    | None -> [||]
  in
  let start_clock = st.clock in
  st.in_parallel <- true;
  let bad = ref None in
  Array.iter
    (fun k ->
      if !bad = None then begin
        if monitor then st.mon_iter <- k;
        let t0 = st.clock in
        (match iteration st l l.frame l.iv_cell k with
        | Snormal -> ()
        | other -> bad := Some other);
        match st.g.machine with
        | Some m ->
          let p = processor m l.trip k in
          buckets.(p) <- buckets.(p) +. (st.clock -. t0)
        | None -> ()
      end)
    order;
  st.in_parallel <- false;
  (match st.g.machine with
  | Some m ->
    st.clock <-
      start_clock +. m.Perf.Machine.fork_join
      +. Array.fold_left Float.max 0.0 buckets
  | None -> ());
  (* leave the induction variable at its sequential final value so
     results do not depend on the iteration order *)
  Store.set_cell l.iv_cell (l.value_at l.trip);
  match !bad with Some sig_ -> sig_ | None -> Snormal

(* Instrumented execution of a PARALLEL DO: storage the loop's plan
   privatizes is excluded via the epoch tag, everything else is
   stamped per iteration. *)
and validated v l : signal =
  let st = l.ctx in
  let excluded = v.excluded l in
  (* make sure planned scalars exist so the exclusion reaches them *)
  ensure l excluded;
  st.g.epoch <- st.g.epoch + 1;
  List.iter
    (fun name ->
      match Hashtbl.find_opt l.frame name with
      | Some (Store.Scalar c) -> c.Store.cbuf.Store.excl_epoch <- st.g.epoch
      | Some (Store.Arr a) -> a.Store.abuf.Store.excl_epoch <- st.g.epoch
      | None -> ())
    excluded;
  let saved_iter = st.mon_iter and saved_loop = st.mon_loop in
  st.mon_loop <- l.stmt.Ast.sid;
  let r = one_at_a_time l ~monitor:true (permutation Seq l.trip) in
  st.mon_iter <- saved_iter;
  st.mon_loop <- saved_loop;
  r

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

type loaded = { top : ctx; main_ui : unit_info; main_frame : frame }

(* COMMON storage is allocated before execution starts, so contexts
   never mutate the commons table and callee frames can be built inside
   parallel regions.  Bounds of COMMON arrays must be compile-time
   constants for this, as F77 requires.  The main unit declares first,
   then the others in program order. *)
let init_commons (units : unit_info list) commons =
  List.iter
    (fun ui ->
      List.iter
        (fun (i : Symbol.info) ->
          if i.common <> None && not (Hashtbl.mem commons i.name) then
            match i.kind with
            | Symbol.Scalar ->
              Hashtbl.replace commons i.name
                (Store.Scalar { Store.cbuf = Store.alloc i.typ 1; coff = 0 })
            | Symbol.Array dims ->
              let bounds =
                List.map
                  (fun (lo, hi) ->
                    match
                      (Symbol.const_eval ui.tbl lo, Symbol.const_eval ui.tbl hi)
                    with
                    | Some l, Some h -> (l, h)
                    | _ -> err "COMMON array %s needs constant bounds" i.name)
                  dims
              in
              let size =
                List.fold_left
                  (fun acc (lo, hi) -> acc * max 1 (hi - lo + 1))
                  1 bounds
              in
              Hashtbl.replace commons i.name
                (Store.Arr { Store.abuf = Store.alloc i.typ size; base = 0; bounds })
            | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> ())
        (Symbol.infos ui.tbl))
    units

let load ?machine ?trace ~parallel ~max_steps (prog : Ast.program) : loaded =
  let units = Hashtbl.create 8 in
  let infos =
    List.map
      (fun (u : Ast.program_unit) ->
        let ui = { u; tbl = Symbol.build u } in
        Hashtbl.replace units u.Ast.uname ui;
        ui)
      prog.Ast.punits
  in
  let main_ui =
    match List.find_opt (fun ui -> ui.u.Ast.kind = Ast.Main) infos with
    | Some ui -> Hashtbl.find units ui.u.Ast.uname
    | None -> err "no main program unit"
  in
  let commons = Hashtbl.create 8 in
  init_commons (main_ui :: infos) commons;
  let g =
    {
      units;
      commons;
      parallel;
      machine;
      trace;
      max_steps;
      steps = Atomic.make 0;
      loop_cycles = Hashtbl.create 16;
      epoch = 0;
    }
  in
  let top = new_ctx g ~depth:0 ~in_parallel:false in
  { top; main_ui; main_frame = build_frame top main_ui [] }

let run_main m =
  try
    match exec_block m.top m.main_ui m.main_frame m.main_ui.u.Ast.body with
    | Snormal | Sreturn | Sstop -> ()
    | Sgoto l -> err "GOTO %d escapes the main program" l
  with
  | Exit -> ()
  | Failure msg -> err "%s" msg

let snapshot (frame : frame) commons : (string * float list) list =
  let one name (slot : Store.slot) acc =
    match slot with
    | Store.Scalar c -> (name, [ to_float (Store.get_cell c) ]) :: acc
    | Store.Arr a ->
      let size =
        List.fold_left (fun acc (lo, hi) -> acc * max 1 (hi - lo + 1)) 1
          a.Store.bounds
      in
      let size = min size (Store.length a.Store.abuf - a.Store.base) in
      let vals = ref [] in
      for i = a.Store.base + size - 1 downto a.Store.base do
        vals := Store.to_float a.Store.abuf i :: !vals
      done;
      (name, !vals) :: acc
  in
  let acc = Hashtbl.fold one frame [] in
  let acc =
    Hashtbl.fold (fun n s acc -> one (Abi.common_key n) s acc) commons acc
  in
  Abi.sort_store acc

let output m = List.rev m.top.out_rev
let stmts_executed m = Atomic.get m.top.g.steps
let final_store m = snapshot m.main_frame m.top.g.commons

let op_counts m =
  let o = m.top.ops in
  {
    Perf.Machine.flops = float_of_int o.o_flops;
    mems = float_of_int o.o_mems;
    intrinsics = float_of_int o.o_intr;
    loop_iters = float_of_int o.o_iters;
    calls = float_of_int o.o_calls;
  }

let run ?(machine = Perf.Machine.default) ?(honor_parallel = true)
    ?(par_order = Seq) ?(max_steps = 50_000_000) ?trace (prog : Ast.program) :
    outcome =
  let parallel = if honor_parallel then Simulated par_order else Sequential in
  let m = load ~machine ?trace ~parallel ~max_steps prog in
  run_main m;
  {
    output = output m;
    cycles = m.top.clock;
    stmts_executed = stmts_executed m;
    final_store = final_store m;
    loop_cycles =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.top.g.loop_cycles []
      |> List.sort compare;
  }

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)
(* ------------------------------------------------------------------ *)

(* Comparison conventions live in {!Abi}, shared with the multicore
   runtime; re-exported here for existing callers. *)

let outputs_match = Abi.outputs_match
let stores_match = Abi.stores_match
