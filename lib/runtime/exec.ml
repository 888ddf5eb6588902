open Fortran_front
open Scalar_analysis
module V = Sim.Value
module Store = Sim.Store
module I = Sim.Interp

exception Runtime_error = I.Runtime_error

(* raised by a worker to cancel the remaining iterations after a
   GOTO/RETURN/STOP escaped the loop body; never escapes this module *)
exception Abort_loop

type conflict_kind = I.conflict_kind = Flow | Anti | Output

let kind_to_string = function
  | Flow -> "flow"
  | Anti -> "anti"
  | Output -> "output"

type pred = Untracked | Predicted of int | Unpredicted

type conflict = {
  c_loop : Ast.stmt_id;
  c_var : string;
  c_kind : conflict_kind;
  c_offset : int;
  c_iter_a : int;
  c_iter_b : int;
  mutable c_count : int;
  c_pred : pred;
}

let conflict_to_string c =
  Printf.sprintf "loop@%d: %s dependence on %s[%d]: iterations %d and %d%s%s"
    c.c_loop (kind_to_string c.c_kind) c.c_var c.c_offset c.c_iter_a c.c_iter_b
    (if c.c_count > 1 then Printf.sprintf " (%d occurrences)" c.c_count else "")
    (match c.c_pred with
    | Untracked -> ""
    | Predicted id -> Printf.sprintf " [predicted by static dep #%d]" id
    | Unpredicted -> " [UNPREDICTED by the static analysis]")

(* Per-worker state of one parallel loop: a copied frame whose
   planned variables point at fresh storage. *)
type wstate = {
  wframe : I.frame;
  wt : I.ctx;
  ivc : Store.cell;
  priv_cells : (Store.cell * Store.cell) list;  (* original, private *)
  ind_cells : (Store.cell * V.value * int) list;
      (* private cell, value on loop entry, stride: re-seeded with the
         closed form K0 + k*stride at the start of every iteration *)
  red_cells :
    (string * (Varclass.reduction_op * Store.cell * Store.cell)) list;
  arr_copies : (Store.arr * Store.buf) list;
  mutable last_iter : int;  (* highest iteration index this worker ran *)
  mutable outs : (int * string list) list;  (* PRINT lines per iteration *)
}

let plan_of plans sid dvar =
  match Hashtbl.find_opt plans sid with
  | Some p -> p
  | None -> Plan.trivial dvar

(* ------------------------------------------------------------------ *)
(* Shadow-memory validation: what the plan excludes, and the report    *)
(* ------------------------------------------------------------------ *)

(* the scalars a plan gives each worker its own copy of *)
let planned_scalars plan =
  plan.Plan.p_privates
  @ List.map fst plan.Plan.p_inductions
  @ List.map fst plan.Plan.p_reductions

let excluded plans (l : I.par_loop) =
  let dvar = l.I.header.Ast.dvar in
  let plan = plan_of plans l.I.stmt.Ast.sid dvar in
  (dvar :: planned_scalars plan) @ plan.Plan.p_arrays

let record_conflict sink predict conflicts loop var kind off iter_a iter_b =
  Telemetry.incr (Telemetry.counter sink "runtime.validator.conflicts");
  let key = (loop, var, kind) in
  match Hashtbl.find_opt conflicts key with
  | Some c -> c.c_count <- c.c_count + 1
  | None ->
    let c_pred =
      match predict with
      | None -> Untracked
      | Some f -> (
        match f loop var kind with
        | Some dep_id ->
          Telemetry.incr
            (Telemetry.counter sink "runtime.validator.predicted");
          Predicted dep_id
        | None ->
          Telemetry.incr
            (Telemetry.counter sink "runtime.validator.unpredicted");
          Unpredicted)
    in
    Hashtbl.replace conflicts key
      {
        c_loop = loop;
        c_var = var;
        c_kind = kind;
        c_offset = off;
        c_iter_a = iter_a;
        c_iter_b = iter_b;
        c_count = 1;
        c_pred;
      }

let induction_value k0 stride k : V.value =
  match k0 with
  | V.VI x -> V.VI (x + (stride * k))
  | V.VR x -> V.VR (x +. float_of_int (stride * k))
  | (V.VL _ | V.VS _) as v -> v

let reduction_identity op (c : Store.cell) : V.value =
  let is_int =
    match c.Store.cbuf.Store.data with Store.I _ -> true | _ -> false
  in
  match (op, is_int) with
  | Varclass.Rsum, true -> V.VI 0
  | Varclass.Rsum, false -> V.VR 0.0
  | Varclass.Rprod, true -> V.VI 1
  | Varclass.Rprod, false -> V.VR 1.0
  | Varclass.Rmax, true -> V.VI min_int
  | Varclass.Rmax, false -> V.VR neg_infinity
  | Varclass.Rmin, true -> V.VI max_int
  | Varclass.Rmin, false -> V.VR infinity

let combine_reduction op a b =
  match (op, a, b) with
  | Varclass.Rsum, V.VI x, V.VI y -> V.VI (x + y)
  | Varclass.Rsum, _, _ -> V.VR (V.to_float a +. V.to_float b)
  | Varclass.Rprod, V.VI x, V.VI y -> V.VI (x * y)
  | Varclass.Rprod, _, _ -> V.VR (V.to_float a *. V.to_float b)
  | Varclass.Rmax, V.VI x, V.VI y -> V.VI (max x y)
  | Varclass.Rmax, _, _ -> V.VR (Float.max (V.to_float a) (V.to_float b))
  | Varclass.Rmin, V.VI x, V.VI y -> V.VI (min x y)
  | Varclass.Rmin, _, _ -> V.VR (Float.min (V.to_float a) (V.to_float b))

(* Real parallel execution of a PARALLEL DO on the domain pool. *)
let run_parallel sink plans pool schedule (l : I.par_loop) : I.signal =
  let frame = l.I.frame and trip = l.I.trip and iv_cell = l.I.iv_cell in
  let plan = plan_of plans l.I.stmt.Ast.sid l.I.header.Ast.dvar in
  (* the planned variables, resolved to their slots once for the loop *)
  let resolve v = Option.map (fun x -> (x, I.slot frame x)) (I.var l v) in
  let scalar v =
    match resolve v with Some (x, Store.Scalar c) -> Some (x, c) | _ -> None
  in
  let iv_var = I.var l l.I.header.Ast.dvar in
  let privs = List.filter_map scalar plan.Plan.p_privates in
  (* auxiliary inductions: capture the entry value now; workers get the
     closed form per iteration and the join writes back the final value *)
  let ind_info =
    List.filter_map
      (fun (v, stride) ->
        Option.map (fun (x, c) -> (x, c, Store.get_cell c, stride)) (scalar v))
      plan.Plan.p_inductions
  in
  let reds =
    List.filter_map
      (fun (v, op) -> Option.map (fun (x, c) -> (v, op, x, c)) (scalar v))
      plan.Plan.p_reductions
  in
  let arrs =
    List.filter_map
      (fun v ->
        match resolve v with Some (x, Store.Arr a) -> Some (x, a) | _ -> None)
      plan.Plan.p_arrays
  in
  let nw = Pool.size pool in
  let wstates = Array.make nw None in
  let bad = ref None in
  let bad_mutex = Mutex.create () in
  let loop_label = Printf.sprintf "s%d" l.I.stmt.Ast.sid in
  (* Lazily built per-worker context: a copied frame in which the
     induction variable, planned private scalars (seeded with the
     current value), reduction scalars (seeded with the operator
     identity) and privatizable arrays (copied) point at fresh
     storage.  Everything else aliases the shared buffers. *)
  let get_ws w =
    match wstates.(w) with
    | Some ws -> ws
    | None ->
      Telemetry.span sink "exec.copy-in"
        ~args:[ ("loop", loop_label); ("worker", string_of_int w) ]
      @@ fun () ->
      let wframe = I.copy_frame frame in
      let fresh_cell (c : Store.cell) =
        { Store.cbuf = Store.alloc_like c.Store.cbuf 1; coff = 0 }
      in
      let ivc = fresh_cell iv_cell in
      Option.iter (fun x -> I.bind wframe x (Store.Scalar ivc)) iv_var;
      let priv_cells =
        List.map
          (fun (x, c) ->
            let nc = fresh_cell c in
            Store.set_cell nc (Store.get_cell c);
            I.bind wframe x (Store.Scalar nc);
            (c, nc))
          privs
      in
      let ind_cells =
        List.map
          (fun (x, c, k0, stride) ->
            let nc = fresh_cell c in
            Store.set_cell nc k0;
            I.bind wframe x (Store.Scalar nc);
            (nc, k0, stride))
          ind_info
      in
      let red_cells =
        List.map
          (fun (v, op, x, c) ->
            let nc = fresh_cell c in
            Store.set_cell nc (reduction_identity op nc);
            I.bind wframe x (Store.Scalar nc);
            (v, (op, c, nc)))
          reds
      in
      let arr_copies =
        List.map
          (fun (x, (a : Store.arr)) ->
            let nb = Store.alloc_like a.Store.abuf (Store.length a.Store.abuf) in
            Store.copy_into nb a.Store.abuf;
            I.bind wframe x
              (Store.Arr { Store.abuf = nb; base = a.Store.base; bounds = a.Store.bounds });
            (a, nb))
          arrs
      in
      let ws =
        { wframe; wt = I.fork l.I.ctx; ivc; priv_cells; ind_cells; red_cells;
          arr_copies; last_iter = -1; outs = [] }
      in
      wstates.(w) <- Some ws;
      ws
  in
  let body_fn ~worker k =
    let ws = get_ws worker in
    ws.last_iter <- k;
    List.iter
      (fun (nc, k0, stride) -> Store.set_cell nc (induction_value k0 stride k))
      ws.ind_cells;
    let sg = I.iteration ws.wt l ws.wframe ws.ivc k in
    (match I.take_output ws.wt with
    | [] -> ()
    | lines -> ws.outs <- (k, lines) :: ws.outs);
    match sg with
    | I.Snormal -> ()
    | other ->
      Mutex.lock bad_mutex;
      if !bad = None then bad := Some other;
      Mutex.unlock bad_mutex;
      raise Abort_loop
  in
  (* the loop span covers fork through join (scheduling, per-worker
     copy-in, the body, and the sequential merge below), so perfdebug
     can compare whole-loop time against summed worker busy time *)
  Telemetry.span sink "exec.parallel-loop"
    ~args:[ ("loop", loop_label); ("trip", string_of_int trip) ]
  @@ fun () ->
  (try
     Pool.parallel_for pool ~label:loop_label ~schedule ~trip ~body:body_fn
   with Abort_loop -> ());
  Telemetry.span sink "exec.join" ~args:[ ("loop", loop_label) ]
  @@ fun () ->
  (* merge worker-buffered PRINT output in iteration order *)
  let outs =
    Array.fold_left
      (fun acc -> function None -> acc | Some ws -> ws.outs @ acc)
      [] wstates
  in
  List.sort (fun (a, _) (b, _) -> compare (a : int) b) outs
  |> List.iter (fun (_, lines) -> I.emit l.I.ctx lines);
  Array.iter
    (function None -> () | Some ws -> I.add_ops l.I.ctx ws.wt)
    wstates;
  (* last-value write-back: private scalars and privatized arrays take
     their values from the worker that ran the sequentially last
     iteration (both schedules hand each worker increasing indices) *)
  let last_ws =
    Array.fold_left
      (fun acc ws ->
        match (acc, ws) with
        | None, _ -> ws
        | Some _, None -> acc
        | Some a, Some b -> if b.last_iter > a.last_iter then ws else acc)
      None wstates
  in
  (match last_ws with
  | Some ws ->
    List.iter
      (fun (orig, mine) -> Store.set_cell orig (Store.get_cell mine))
      ws.priv_cells;
    List.iter
      (fun ((a : Store.arr), mine) -> Store.copy_into a.Store.abuf mine)
      ws.arr_copies
  | None -> ());
  (* reductions: combine per-worker partials into the original cell,
     deterministically in worker order *)
  List.iter
    (fun (v, op, _, orig) ->
      let acc = ref (Store.get_cell orig) in
      Array.iter
        (function
          | None -> ()
          | Some ws -> (
            match List.assoc_opt v ws.red_cells with
            | Some (_, _, mine) ->
              acc := combine_reduction op !acc (Store.get_cell mine)
            | None -> ()))
        wstates;
      Store.set_cell orig !acc)
    reds;
  (* auxiliary inductions land on their sequential final value *)
  List.iter
    (fun (_, c, k0, stride) ->
      Store.set_cell c (induction_value k0 stride trip))
    ind_info;
  Store.set_cell iv_cell (l.I.value_at trip);
  match !bad with Some other -> other | None -> I.Snormal

type outcome = {
  output : string list;
  wall_s : float;
  stmts_executed : int;
  final_store : (string * float list) list;
  conflicts : conflict list;
  ops : Perf.Machine.op_counts;
}

let run ?(domains = 4) ?(schedule = Pool.Chunk) ?(validate = false)
    ?predict ?(max_steps = 50_000_000) ?telemetry (prog : Ast.program) :
    outcome =
  let sink =
    match telemetry with Some s -> s | None -> Telemetry.default ()
  in
  let plans = Plan.build prog in
  let conflicts = Hashtbl.create 8 in
  let pool =
    if validate then None else Some (Pool.create ~telemetry:sink domains)
  in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool) @@ fun () ->
  let parallel =
    match pool with
    | None ->
      I.Validated
        {
          I.excluded = excluded plans;
          conflict = record_conflict sink predict conflicts;
        }
    | Some pool -> I.Runner (run_parallel sink plans pool schedule)
  in
  let m = I.load ~parallel ~max_steps prog in
  (* monotonic wall clock: NTP slew must not skew speedup tables *)
  let t0 = Telemetry.now_ns () in
  Telemetry.span sink "exec.run" (fun () -> I.run_main m);
  let wall = Int64.to_float (Int64.sub (Telemetry.now_ns ()) t0) /. 1e9 in
  {
    output = I.output m;
    wall_s = wall;
    stmts_executed = I.stmts_executed m;
    final_store = I.final_store m;
    conflicts =
      Hashtbl.fold (fun _ c acc -> c :: acc) conflicts []
      |> List.sort (fun a b ->
             compare
               (a.c_loop, a.c_var, a.c_kind)
               (b.c_loop, b.c_var, b.c_kind));
    ops = I.op_counts m;
  }

let force_parallel (prog : Ast.program) : Ast.program =
  let rewrite (u : Ast.program_unit) =
    {
      u with
      Ast.body =
        Ast.map_stmts
          (fun (s : Ast.stmt) ->
            match s.Ast.node with
            | Ast.Do (h, body) ->
              { s with Ast.node = Ast.Do ({ h with Ast.parallel = true }, body) }
            | _ -> s)
          u.Ast.body;
    }
  in
  { Ast.punits = List.map rewrite prog.Ast.punits }

let strip_parallel (prog : Ast.program) : Ast.program =
  let rewrite (u : Ast.program_unit) =
    {
      u with
      Ast.body =
        Ast.map_stmts
          (fun (s : Ast.stmt) ->
            match s.Ast.node with
            | Ast.Do (h, body) ->
              { s with Ast.node = Ast.Do ({ h with Ast.parallel = false }, body) }
            | _ -> s)
          u.Ast.body;
    }
  in
  { Ast.punits = List.map rewrite prog.Ast.punits }
