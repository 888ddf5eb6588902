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

(* The storage of one activation of a unit: one slot per variable the
   unit's symbol table gives storage (its scalars and arrays), indexed
   by the numbers the unit was compiled against. *)
type frame = Store.slot array

(* simulated time of one DO statement, summed over its executions *)
type loop_time = { mutable cyc : float; mutable ran : bool }

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
      (* allocated before compilation: contexts only read this table,
         so callee frames can be built on any domain *)
  parallel : parallel;
  machine : Perf.Machine.t option;  (* Some: the simulated clock runs *)
  trace : (access -> unit) option;
  max_steps : int;
  steps : int Atomic.t;
  loop_cycles : (Ast.stmt_id, loop_time) Hashtbl.t;
      (* one entry per DO statement, made at compile time; only written
         with a clock *)
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

and unit_info = {
  u : Ast.program_unit;
  tbl : Symbol.table;
  index : (string, int) Hashtbl.t;  (* variable name -> frame slot *)
  names : string array;  (* frame slot -> variable name *)
  mutable code : code;  (* set once, when the program loads *)
}

and code = {
  init : ctx -> frame -> unit;
      (* give every slot the call's bindings left empty its storage *)
  main : block;
}

(* A compiled statement or block, run against a context and a frame. *)
and block = ctx -> frame -> signal

and par_loop = {
  ctx : ctx;
  ui : unit_info;
  frame : frame;
  stmt : Ast.stmt;
  header : Ast.do_header;
  body : block;
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
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

(* the content of a slot no storage has been given yet; only seen
   while a frame is being built *)
let absent = Store.Scalar { Store.cbuf = Store.alloc Ast.Tinteger 1; coff = 0 }

type var = int

let var l name = Hashtbl.find_opt l.ui.index name
let slot (fr : frame) (x : var) = fr.(x)
let copy_frame (fr : frame) : frame = Array.copy fr
let bind (fr : frame) (x : var) s = fr.(x) <- s

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

let read_scalar st var (c : Store.cell) =
  st.ops.o_mems <- st.ops.o_mems + 1;
  note_read st var c.Store.cbuf c.Store.coff;
  Store.get_cell c

let write_scalar st var (c : Store.cell) v =
  st.ops.o_mems <- st.ops.o_mems + 1;
  note_write st var c.Store.cbuf c.Store.coff;
  Store.set_cell c v

let read_elem st var (a : Store.arr) off =
  st.ops.o_mems <- st.ops.o_mems + 1;
  record_access st ~var ~off ~write:false;
  note_read st var a.Store.abuf off;
  Store.get a.Store.abuf off

let write_elem st var (a : Store.arr) off v =
  st.ops.o_mems <- st.ops.o_mems + 1;
  record_access st ~var ~off ~write:true;
  note_write st var a.Store.abuf off;
  Store.set a.Store.abuf off v

(* {!Store.offset} for one and two subscripts without building the
   subscript list; any case the shortcut does not cover, including
   every error, goes through {!Store.offset} itself. *)
let offset1 (a : Store.arr) i =
  match a.Store.bounds with
  | [ (lb, _) ] ->
    let off = a.Store.base + (i - lb) in
    if off < 0 || off >= Store.length a.Store.abuf then Store.offset a [ i ]
    else off
  | _ -> Store.offset a [ i ]

let offset2 (a : Store.arr) i j =
  match a.Store.bounds with
  | [ (lb1, ub1); (lb2, _) ] ->
    let size1 = if ub1 >= lb1 then ub1 - lb1 + 1 else 1 in
    let off = a.Store.base + ((i - lb1) + ((j - lb2) * size1)) in
    if off < 0 || off >= Store.length a.Store.abuf then Store.offset a [ i; j ]
    else off
  | _ -> Store.offset a [ i; j ]

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let vtrue = VL true
let vfalse = VL false
let vbool b = if b then vtrue else vfalse

let arith op : value -> value -> value =
  let ints : int -> int -> value =
    match op with
    | Ast.Add -> fun x y -> VI (x + y)
    | Ast.Sub -> fun x y -> VI (x - y)
    | Ast.Mul -> fun x y -> VI (x * y)
    | Ast.Div ->
      fun x y -> if y = 0 then err "integer division by zero" else VI (x / y)
    | Ast.Pow ->
      fun x y ->
        if y < 0 then VI 0
        else VI (int_of_float (Float.round (float_of_int x ** float_of_int y)))
    | _ -> assert false
  and floats : float -> float -> float =
    match op with
    | Ast.Add -> ( +. )
    | Ast.Sub -> ( -. )
    | Ast.Mul -> ( *. )
    | Ast.Div -> ( /. )
    | Ast.Pow -> ( ** )
    | _ -> assert false
  in
  fun a b ->
    match (a, b) with
    | VR x, VR y -> VR (floats x y)
    | VI x, VI y -> ints x y
    | (VI _ | VR _), (VI _ | VR _) -> VR (floats (to_float a) (to_float b))
    | _ -> err "bad operands for arithmetic"

let compare_vals op : value -> value -> value =
  let test : float -> float -> bool =
    match op with
    | Ast.Lt -> ( < )
    | Ast.Le -> ( <= )
    | Ast.Gt -> ( > )
    | Ast.Ge -> ( >= )
    | Ast.Eq -> ( = )
    | Ast.Ne -> ( <> )
    | _ -> assert false
  in
  fun a b -> vbool (test (to_float a) (to_float b))

(* ------------------------------------------------------------------ *)
(* Loop helpers                                                        *)
(* ------------------------------------------------------------------ *)

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

let iteration st l fr (ivc : Store.cell) k : signal =
  Store.set_cell ivc (l.value_at k);
  st.ops.o_iters <- st.ops.o_iters + 1;
  (match st.g.machine with
  | Some m -> st.clock <- st.clock +. m.Perf.Machine.loop_overhead
  | None -> ());
  match st.g.trace with
  | None -> l.body st fr
  | Some _ ->
    st.loop_stack <- (l.stmt.Ast.sid, k) :: st.loop_stack;
    let r = l.body st fr in
    st.loop_stack <- List.tl st.loop_stack;
    r

let sequential l : signal =
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
let one_at_a_time l ~monitor order : signal =
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
let validated v l : signal =
  let st = l.ctx in
  let excluded = v.excluded l in
  st.g.epoch <- st.g.epoch + 1;
  List.iter
    (fun name ->
      match var l name with
      | Some x -> (
        match l.frame.(x) with
        | Store.Scalar c -> c.Store.cbuf.Store.excl_epoch <- st.g.epoch
        | Store.Arr a -> a.Store.abuf.Store.excl_epoch <- st.g.epoch)
      | None -> ())
    excluded;
  let saved_iter = st.mon_iter and saved_loop = st.mon_loop in
  st.mon_loop <- l.stmt.Ast.sid;
  let r = one_at_a_time l ~monitor:true (permutation Seq l.trip) in
  st.mon_iter <- saved_iter;
  st.mon_loop <- saved_loop;
  r

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Each unit is translated once into closures over its frame: names
   are slot numbers, every Index is settled as an element, an intrinsic
   or a call, callees are resolved, and each statement's simulated cost
   is summed in advance.  Everything that can fail at run time still
   fails only when the closure runs, with the message the statement
   would give. *)

type env = { gl : global; ui : unit_info }

let slot_of env name =
  match Hashtbl.find_opt env.ui.index name with Some i -> i | None -> -1

let no_storage env name =
  err "variable %s has no storage in %s" name env.ui.u.Ast.uname

(* the slot of a variable, failing as the unit has no storage for it *)
let fetch env name fr i : Store.slot =
  if i < 0 then no_storage env name
  else
    let s = fr.(i) in
    if s == absent then no_storage env name else s

let array_at env name fr i : Store.arr =
  match fetch env name fr i with
  | Store.Arr a -> a
  | Store.Scalar _ -> err "%s is not an array" name

(* [charge env exprs extra] — a statement's simulated cost, or [None]
   without a clock: [extra] first, then each expression in order, so
   the float sum (and with it every pinned cycle count) is the one
   {!Perf.Estimator} gives term by term *)
let charge env exprs extra =
  match env.gl.machine with
  | None -> None
  | Some m ->
    Some
      (List.fold_left
         (fun acc e -> acc +. Perf.Estimator.expr_cost m env.ui.tbl e)
         (extra m) exprs)

let tick cost st =
  match cost with None -> () | Some c -> st.clock <- st.clock +. c

let enter st sid =
  if Atomic.fetch_and_add st.g.steps 1 >= st.g.max_steps then
    err "statement budget exhausted";
  st.cur_sid <- sid;
  st.instance <- st.instance + 1

let rec expr env (e : Ast.expr) : ctx -> frame -> value =
  match e with
  | Ast.Int n ->
    let v = VI n in
    fun _ _ -> v
  | Ast.Real f ->
    let v = VR f in
    fun _ _ -> v
  | Ast.Logic b ->
    let v = VL b in
    fun _ _ -> v
  | Ast.Str s ->
    let v = VS s in
    fun _ _ -> v
  | Ast.Var v ->
    let i = slot_of env v in
    fun st fr -> (
      match fetch env v fr i with
      | Store.Scalar c -> read_scalar st v c
      | Store.Arr _ -> err "array %s used as a scalar value" v)
  | Ast.Index (b, args) -> (
    match Symbol.lookup env.ui.tbl b with
    | Some { kind = Symbol.Array _; _ } ->
      let i = slot_of env b and at = locate env b args in
      fun st fr ->
        let off = at st fr in
        read_elem st b (checked_array fr i) off
    | Some { kind = Symbol.Intrinsic; _ } -> intrinsic env b args
    | Some { kind = Symbol.External_fun; _ } -> function_call env b args
    | _ -> fun _ _ -> err "cannot evaluate %s(...)" b)
  | Ast.Un (Ast.Neg, a) -> (
    let a = expr env a in
    fun st fr ->
      match a st fr with
      | VI n -> VI (-n)
      | VR f -> VR (-.f)
      | v -> err "cannot negate %s" (Format.asprintf "%a" pp_value v))
  | Ast.Un (Ast.Not, a) ->
    let a = expr env a in
    fun st fr -> vbool (not (to_bool (a st fr)))
  | Ast.Bin (op, a, b) -> (
    let a = expr env a and b = expr env b in
    match op with
    | Ast.And -> fun st fr -> vbool (to_bool (a st fr) && to_bool (b st fr))
    | Ast.Or -> fun st fr -> vbool (to_bool (a st fr) || to_bool (b st fr))
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
      let f =
        match op with
        | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow -> arith op
        | _ -> compare_vals op
      in
      fun st fr ->
        st.ops.o_flops <- st.ops.o_flops + 1;
        (* the right operand first: the access trace, the shadow
           stamps and which error fires first all follow this order *)
        let y = b st fr in
        let x = a st fr in
        f x y)

(* the element offset of [b(args)]: subscripts left to right, then
   [b]'s slot must hold an array *)
and locate env b args : ctx -> frame -> int =
  let i = slot_of env b in
  match List.map (expr env) args with
  | [ x ] ->
    fun st fr ->
      let x = to_int (x st fr) in
      offset1 (array_at env b fr i) x
  | [ x; y ] ->
    fun st fr ->
      let x = to_int (x st fr) in
      let y = to_int (y st fr) in
      offset2 (array_at env b fr i) x y
  | xs ->
    fun st fr ->
      let idxs = List.map (fun x -> to_int (x st fr)) xs in
      Store.offset (array_at env b fr i) idxs

and intrinsic env name args : ctx -> frame -> value =
  let args = List.map (expr env) args in
  let vs st fr = List.map (fun a -> a st fr) args in
  let count st = st.ops.o_intr <- st.ops.o_intr + 1 in
  let unary f =
    match args with
    | [ a ] ->
      fun st fr ->
        count st;
        f (a st fr)
    | _ ->
      fun st fr ->
        count st;
        match vs st fr with
        | [ v ] -> f v
        | _ -> err "%s expects one argument" name
  in
  let binary f =
    match args with
    | [ a; b ] ->
      fun st fr ->
        count st;
        let x = a st fr in
        let y = b st fr in
        f x y
    | _ ->
      fun st fr ->
        count st;
        match vs st fr with
        | [ x; y ] -> f x y
        | _ -> err "%s expects two arguments" name
  in
  let real f = unary (fun v -> VR (f (to_float v))) in
  match name with
  | "ABS" -> unary (function VI n -> VI (abs n) | v -> VR (Float.abs (to_float v)))
  | "MOD" ->
    binary (fun a b ->
        match (a, b) with
        | VI a, VI b -> if b = 0 then err "MOD by zero" else VI (a mod b)
        | a, b -> VR (Float.rem (to_float a) (to_float b)))
  | "MAX" | "MIN" ->
    let sel = if name = "MAX" then Float.max else Float.min in
    fun st fr ->
      count st;
      let vs = vs st fr in
      let all_int = List.for_all (function VI _ -> true | _ -> false) vs in
      let r =
        List.fold_left (fun acc v -> sel acc (to_float v))
          (to_float (List.hd vs)) (List.tl vs)
      in
      if all_int then VI (int_of_float r) else VR r
  | "SQRT" -> real sqrt
  | "EXP" -> real exp
  | "LOG" -> real log
  | "SIN" -> real sin
  | "COS" -> real cos
  | "TAN" -> real tan
  | "FLOAT" | "DBLE" | "SNGL" -> real Fun.id
  | "INT" -> unary (fun v -> VI (to_int v))
  | "NINT" -> unary (fun v -> VI (int_of_float (Float.round (to_float v))))
  | "SIGN" ->
    binary (fun a b ->
        let m = Float.abs (to_float a) in
        let r = if to_float b < 0.0 then -.m else m in
        match a with VI _ -> VI (int_of_float r) | _ -> VR r)
  | _ ->
    fun st _ ->
      count st;
      err "unknown intrinsic %s" name

and function_call env name args : ctx -> frame -> value =
  match Hashtbl.find_opt env.gl.units name with
  | None ->
    fun _ _ -> err "unknown function %s (external functions must be supplied)" name
  | Some callee -> (
    match callee.u.Ast.kind with
    | Ast.Function (_, formals) ->
      let call = call env callee formals args in
      let result = Hashtbl.find_opt callee.index name in
      let overhead = Option.map (fun m -> m.Perf.Machine.call_overhead) env.gl.machine in
      fun st fr -> (
        tick overhead st;
        st.ops.o_calls <- st.ops.o_calls + 1;
        let cf = call st fr in
        match Option.map (fun r -> cf.(r)) result with
        | Some (Store.Scalar c as s) when s != absent -> Store.get_cell c
        | _ -> err "function %s returned no value" name)
    | Ast.Subroutine _ | Ast.Main -> fun _ _ -> err "%s is not a function" name)

(* A call of [callee]: bind the actuals into a fresh frame (by
   reference, the last actual first, an order the access trace shows),
   build the rest of the frame and run the body.  Returns the callee's
   frame. *)
and call env callee formals actuals : ctx -> frame -> frame =
  let nf = List.length formals and na = List.length actuals in
  if nf > na then
    let f = List.nth formals na in
    fun _ _ -> err "missing actual argument for %s" f
  else
    let binds =
      Array.of_list
        (List.mapi
           (fun k f ->
             (* a formal named twice takes its last actual *)
             let later = List.filteri (fun k' _ -> k' > k) formals in
             bind_actual env callee f ~store:(not (List.mem f later))
               (List.nth actuals k))
           formals)
    in
    let size = Array.length callee.names and uname = callee.u.Ast.uname in
    fun st fr ->
      let cf = Array.make size absent in
      for k = Array.length binds - 1 downto 0 do
        binds.(k) st fr cf
      done;
      st.depth <- st.depth + 1;
      if st.depth > 200 then err "call depth exceeded (recursion?)";
      callee.code.init st cf;
      (match callee.code.main st cf with
      | Snormal | Sreturn -> ()
      | Sstop ->
        st.depth <- st.depth - 1;
        raise Exit
      | Sgoto l -> err "GOTO %d escapes %s" l uname);
      st.depth <- st.depth - 1;
      cf

and bind_actual env callee formal ~store actual : ctx -> frame -> frame -> unit =
  let j =
    match Hashtbl.find_opt callee.index formal with
    | Some j when store -> j
    | _ -> -1
  in
  let set cf s = if j >= 0 then cf.(j) <- s in
  match actual with
  | Ast.Var v ->
    let i = slot_of env v in
    fun _ fr cf -> set cf (fetch env v fr i)
  | Ast.Index (b, idxs) when Symbol.is_array env.ui.tbl b ->
    let idxs = List.map (expr env) idxs and i = slot_of env b in
    let formal_is_array = Symbol.is_array callee.tbl formal in
    fun st fr cf ->
      let idxs = List.map (fun x -> to_int (x st fr)) idxs in
      let a = array_at env b fr i in
      let off = Store.offset a idxs in
      set cf
        (if formal_is_array then
           (* the callee sees storage starting at this element *)
           Store.Arr { Store.abuf = a.Store.abuf; base = off; bounds = [] }
         else Store.Scalar { Store.cbuf = a.Store.abuf; coff = off })
  | e ->
    (* expression argument: pass a temporary *)
    let e = expr env e and typ = Symbol.typ_of callee.tbl formal in
    fun st fr cf ->
      let b = Store.alloc typ 1 in
      Store.set b 0 (e st fr);
      set cf (Store.Scalar { Store.cbuf = b; coff = 0 })

(* the array in slot [i], which {!locate} has just checked *)
and checked_array fr i =
  match fr.(i) with Store.Arr a -> a | Store.Scalar _ -> assert false

let rec block env (stmts : Ast.stmt list) : block =
  let code = Array.of_list (List.map (stmt env) stmts) in
  let n = Array.length code in
  (* each label's first statement in this block *)
  let labels =
    List.fold_left
      (fun (k, acc) (s : Ast.stmt) ->
        ( k + 1,
          match s.Ast.label with
          | Some l when not (List.mem_assoc l acc) -> (l, k) :: acc
          | _ -> acc ))
      (0, []) stmts
    |> snd
  in
  match (code, labels) with
  | [||], _ -> fun _ _ -> Snormal
  | [| s |], [] -> s
  | _, [] ->
    fun st fr ->
      let rec from k =
        if k >= n then Snormal
        else match code.(k) st fr with Snormal -> from (k + 1) | s -> s
      in
      from 0
  | _ ->
    fun st fr ->
      let rec from k =
        if k >= n then Snormal
        else
          match code.(k) st fr with
          | Snormal -> from (k + 1)
          | Sgoto l as s -> (
            (* a label in this block? (possibly behind us) *)
            match List.assoc_opt l labels with Some j -> from j | None -> s)
          | s -> s
      in
      from 0

and stmt env (s : Ast.stmt) : block =
  let sid = s.Ast.sid in
  match s.Ast.node with
  | Ast.Continue ->
    fun st _ ->
      enter st sid;
      Snormal
  | Ast.Goto l ->
    let r = Sgoto l in
    fun st _ ->
      enter st sid;
      r
  | Ast.Return ->
    fun st _ ->
      enter st sid;
      Sreturn
  | Ast.Stop ->
    fun st _ ->
      enter st sid;
      Sstop
  | Ast.Assign (lhs, rhs) -> (
    let cost = charge env [ lhs; rhs ] (fun m -> m.Perf.Machine.mem_cost) in
    let rhs = expr env rhs in
    match lhs with
    | Ast.Var name ->
      let i = slot_of env name in
      fun st fr -> (
        enter st sid;
        tick cost st;
        let v = rhs st fr in
        match fetch env name fr i with
        | Store.Scalar c ->
          write_scalar st name c v;
          Snormal
        | Store.Arr _ -> err "cannot assign whole array %s" name)
    | Ast.Index (b, idxs) ->
      let i = slot_of env b and at = locate env b idxs in
      fun st fr ->
        enter st sid;
        tick cost st;
        let v = rhs st fr in
        let off = at st fr in
        write_elem st b (checked_array fr i) off v;
        Snormal
    | _ ->
      fun st fr ->
        enter st sid;
        tick cost st;
        ignore (rhs st fr);
        err "bad assignment target")
  | Ast.Print args ->
    let cost = charge env args (fun _ -> 10.0) in
    let args = List.map (expr env) args in
    fun st fr ->
      enter st sid;
      tick cost st;
      let line = Abi.print_line (List.map (fun a -> a st fr) args) in
      st.out_rev <- line :: st.out_rev;
      Snormal
  | Ast.If (branches, els) ->
    let cost = charge env (List.map fst branches) (fun _ -> 0.0) in
    let branches = List.map (fun (c, body) -> (expr env c, block env body)) branches in
    let els = block env els in
    fun st fr ->
      enter st sid;
      tick cost st;
      let rec pick = function
        | [] -> els st fr
        | (c, body) :: rest -> if to_bool (c st fr) then body st fr else pick rest
      in
      pick branches
  | Ast.Call (name, args) -> (
    let cost = charge env args (fun m -> m.Perf.Machine.call_overhead) in
    let fail msg =
      fun st _ ->
        enter st sid;
        tick cost st;
        raise (Runtime_error msg)
    in
    match Hashtbl.find_opt env.gl.units name with
    | None -> fail ("unknown subroutine " ^ name)
    | Some { u = { Ast.kind = Ast.Main; _ }; _ } -> fail "cannot CALL the main program"
    | Some ({ u = { Ast.kind = Ast.Subroutine formals | Ast.Function (_, formals); _ }; _ }
            as callee) ->
      let call = call env callee formals args in
      fun st fr ->
        enter st sid;
        tick cost st;
        st.ops.o_calls <- st.ops.o_calls + 1;
        ignore (call st fr);
        Snormal)
  | Ast.Do (h, body) -> (
    let run = do_loop env s h body in
    match env.gl.machine with
    | None ->
      fun st fr ->
        enter st sid;
        run st fr
    | Some _ ->
      let time =
        match Hashtbl.find_opt env.gl.loop_cycles sid with
        | Some t -> t
        | None ->
          let t = { cyc = 0.0; ran = false } in
          Hashtbl.replace env.gl.loop_cycles sid t;
          t
      in
      fun st fr ->
        enter st sid;
        (* the header is charged inside the loop's own time *)
        let t0 = st.clock in
        let r = run st fr in
        time.cyc <- (st.clock -. t0) +. time.cyc;
        time.ran <- true;
        r)

and do_loop env (s : Ast.stmt) (h : Ast.do_header) body : block =
  let cost =
    charge env ([ h.Ast.lo; h.Ast.hi ] @ Option.to_list h.Ast.step) (fun _ -> 0.0)
  in
  let lo = expr env h.Ast.lo and hi = expr env h.Ast.hi in
  let step = Option.map (expr env) h.Ast.step in
  let dvar = h.Ast.dvar in
  let iv = slot_of env dvar in
  let spreads = h.Ast.parallel in
  let body = block env body and ui = env.ui in
  fun st fr ->
    tick cost st;
    let lo = lo st fr in
    let hi = hi st fr in
    let step = match step with None -> VI 1 | Some e -> e st fr in
    let is_int =
      match (lo, hi, step) with VI _, VI _, VI _ -> true | _ -> false
    in
    let iv_cell =
      match fetch env dvar fr iv with
      | Store.Scalar c -> c
      | Store.Arr _ -> err "loop variable %s is an array" dvar
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
    let value_at =
      if is_int then
        let l = to_int lo and st_ = to_int step in
        fun k -> VI (l + (k * st_))
      else
        let l = to_float lo and st_ = to_float step in
        fun k -> VR (l +. (float_of_int k *. st_))
    in
    (* F77: the DO variable receives its initial value even when the
       loop runs zero times *)
    Store.set_cell iv_cell (value_at 0);
    let l =
      { ctx = st; ui; frame = fr; stmt = s; header = h; body; trip; value_at; iv_cell }
    in
    if not (spreads && not st.in_parallel) then sequential l
    else
      match st.g.parallel with
      | Sequential -> sequential l
      | Simulated order -> one_at_a_time l ~monitor:false (permutation order trip)
      | Validated v -> validated v l
      | Runner run -> if trip > 0 then run l else sequential l

(* Building a frame, after the call's bindings: every scalar the
   bindings left empty (COMMON storage, or fresh storage holding its
   PARAMETER or DATA value), then every array — its bounds evaluated
   in the frame, a passed array reshaped to them, a COMMON array
   shared, any other allocated. *)
let init env : ctx -> frame -> unit =
  let ui = env.ui in
  let common name =
    match Hashtbl.find_opt env.gl.commons name with
    | Some s -> fun () -> s
    | None -> fun () -> err "COMMON variable %s was not pre-allocated" name
  in
  let infos = Symbol.infos ui.tbl in
  let scalars =
    List.filter_map
      (fun (i : Symbol.info) ->
        match i.kind with
        | Symbol.Scalar ->
          let make =
            if i.common <> None then common i.name
            else
              let v =
                match Symbol.param_value ui.tbl i.name with
                | Some n -> Some (VI n)
                | None -> (
                  (* DATA initial value: literals only *)
                  match i.data with
                  | Some (Ast.Int n) -> Some (VI n)
                  | Some (Ast.Real f) -> Some (VR f)
                  | Some (Ast.Logic l) -> Some (VL l)
                  | Some (Ast.Un (Ast.Neg, Ast.Int n)) -> Some (VI (-n))
                  | Some (Ast.Un (Ast.Neg, Ast.Real f)) -> Some (VR (-.f))
                  | Some _ | None -> None)
              in
              fun () ->
                let b = Store.alloc i.typ 1 in
                Option.iter (Store.set b 0) v;
                Store.Scalar { Store.cbuf = b; coff = 0 }
          in
          Some (slot_of env i.name, make)
        | Symbol.Array _ | Symbol.Routine | Symbol.External_fun
        | Symbol.Intrinsic -> None)
      infos
  in
  let arrays =
    List.filter_map
      (fun (i : Symbol.info) ->
        match i.kind with
        | Symbol.Array dims ->
          let dims =
            List.map
              (fun (lo, hi) ->
                ( expr env lo,
                  match hi with
                  | Ast.Int n when n = max_int ->
                    (* assumed-size: extent comes from the storage *)
                    None
                  | e -> Some (expr env e) ))
              dims
          in
          let shared = if i.common <> None then Some (common i.name) else None in
          Some (slot_of env i.name, dims, i.typ, shared)
        | Symbol.Scalar | Symbol.Routine | Symbol.External_fun
        | Symbol.Intrinsic -> None)
      infos
  in
  fun st fr ->
    List.iter (fun (k, make) -> if fr.(k) == absent then fr.(k) <- make ()) scalars;
    List.iter
      (fun (k, dims, typ, shared) ->
        let bounds =
          List.map
            (fun (lo, hi) ->
              let lo = to_int (lo st fr) in
              let hi = match hi with None -> max_int | Some e -> to_int (e st fr) in
              (lo, hi))
            dims
        in
        match fr.(k) with
        | Store.Arr view ->
          (* formal array: reshape the passed storage to our bounds *)
          let bounds =
            (* resolve assumed-size final extent against storage *)
            match List.rev bounds with
            | (lo, hi) :: rest when hi = max_int ->
              let other =
                List.fold_left (fun acc (l, h) -> acc * max 1 (h - l + 1)) 1 rest
              in
              let avail = Store.length view.Store.abuf - view.Store.base in
              let extent = max 1 (avail / max 1 other) in
              List.rev ((lo, lo + extent - 1) :: rest)
            | _ -> bounds
          in
          fr.(k) <- Store.Arr { view with Store.bounds }
        | Store.Scalar _ as s when s != absent -> ()
        | Store.Scalar _ -> (
          match shared with
          | Some common -> fr.(k) <- common ()
          | None ->
            let size =
              List.fold_left (fun acc (lo, hi) -> acc * max 1 (hi - lo + 1)) 1 bounds
            in
            fr.(k) <- Store.Arr { Store.abuf = Store.alloc typ size; base = 0; bounds }))
      arrays

let compile g ui = ui.code <- { init = init { gl = g; ui }; main = block { gl = g; ui } ui.u.Ast.body }

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

let not_compiled = { init = (fun _ _ -> ()); main = (fun _ _ -> Snormal) }

(* a unit with a frame slot for every variable its table gives storage *)
let unit_info (u : Ast.program_unit) =
  let tbl = Symbol.build u in
  let names =
    List.filter_map
      (fun (i : Symbol.info) ->
        match i.kind with
        | Symbol.Scalar | Symbol.Array _ -> Some i.name
        | Symbol.Routine | Symbol.External_fun | Symbol.Intrinsic -> None)
      (Symbol.infos tbl)
    |> Array.of_list
  in
  let index = Hashtbl.create (Array.length names) in
  Array.iteri (fun k n -> Hashtbl.replace index n k) names;
  { u; tbl; index; names; code = not_compiled }

let load ?machine ?trace ~parallel ~max_steps (prog : Ast.program) : loaded =
  let units = Hashtbl.create 8 in
  let infos =
    List.map
      (fun (u : Ast.program_unit) ->
        let ui = unit_info u in
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
  List.iter (compile g) infos;
  let top = new_ctx g ~depth:0 ~in_parallel:false in
  let main_frame = Array.make (Array.length main_ui.names) absent in
  main_ui.code.init top main_frame;
  { top; main_ui; main_frame }

let run_main m =
  try
    match m.main_ui.code.main m.top m.main_frame with
    | Snormal | Sreturn | Sstop -> ()
    | Sgoto l -> err "GOTO %d escapes the main program" l
  with
  | Exit -> ()
  | Failure msg -> err "%s" msg

let snapshot ui (fr : frame) commons : (string * float list) list =
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
  let acc = ref [] in
  Array.iteri (fun k s -> if s != absent then acc := one ui.names.(k) s !acc) fr;
  let acc =
    Hashtbl.fold (fun n s acc -> one (Abi.common_key n) s acc) commons !acc
  in
  Abi.sort_store acc

let output m = List.rev m.top.out_rev
let stmts_executed m = Atomic.get m.top.g.steps
let final_store m = snapshot m.main_ui m.main_frame m.top.g.commons

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
      Hashtbl.fold
        (fun sid t acc -> if t.ran then (sid, t.cyc) :: acc else acc)
        m.top.g.loop_cycles []
      |> List.sort compare;
  }

(* ------------------------------------------------------------------ *)
(* Comparisons                                                         *)
(* ------------------------------------------------------------------ *)

(* Comparison conventions live in {!Abi}, shared with the multicore
   runtime; re-exported here for existing callers. *)

let outputs_match = Abi.outputs_match
let stores_match = Abi.stores_match
