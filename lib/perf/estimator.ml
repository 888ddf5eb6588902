open Fortran_front
open Dependence

let default_trip = 32

type estimate = { cycles : float; exact_trips : bool }

let ( +@ ) a b =
  { cycles = a.cycles +. b.cycles; exact_trips = a.exact_trips && b.exact_trips }

let zero = { cycles = 0.0; exact_trips = true }

let rec expr_cost (m : Machine.t) tbl (e : Ast.expr) : float =
  match e with
  | Ast.Int _ | Ast.Real _ | Ast.Logic _ | Ast.Str _ -> 0.0
  | Ast.Var _ -> 0.0
  | Ast.Index (b, args) ->
    let args_cost =
      List.fold_left (fun acc a -> acc +. expr_cost m tbl a) 0.0 args
    in
    let base =
      match Symbol.lookup tbl b with
      | Some { kind = Symbol.Array _; _ } -> m.Machine.mem_cost
      | Some { kind = Symbol.Intrinsic; _ } -> m.Machine.intrinsic_cost
      | Some { kind = Symbol.External_fun; _ } -> m.Machine.call_overhead
      | _ -> m.Machine.mem_cost
    in
    base +. args_cost
  | Ast.Bin (_, a, b) ->
    m.Machine.flop_cost +. expr_cost m tbl a +. expr_cost m tbl b
  | Ast.Un (_, a) -> m.Machine.flop_cost +. expr_cost m tbl a

let trip_count (env : Depenv.t) sid (h : Ast.do_header) : int option =
  let step =
    match h.Ast.step with
    | None -> Some 1
    | Some e -> Depenv.int_at env sid e
  in
  match step with
  | None | Some 0 -> None
  | Some st -> (
    match Depenv.int_at env sid (Ast.sub h.Ast.hi h.Ast.lo) with
    | Some diff ->
      let t = (diff / st) + 1 in
      Some (max 0 t)
    | None -> None)

(* [parallel_ok] — when true, a PARALLEL DO spreads over processors.
   Nested parallel loops execute sequentially inside. *)
let rec cost_stmt ~parallel_ok ~callee_cost (m : Machine.t) (env : Depenv.t)
    (s : Ast.stmt) : estimate =
  let tbl = env.Depenv.tbl in
  match s.Ast.node with
  | Ast.Assign (lhs, rhs) ->
    {
      cycles = expr_cost m tbl lhs +. expr_cost m tbl rhs +. m.Machine.mem_cost;
      exact_trips = true;
    }
  | Ast.Call (callee, args) ->
    let body =
      match callee_cost callee with Some c -> c | None -> 0.0
    in
    {
      cycles =
        m.Machine.call_overhead +. body
        +. List.fold_left (fun acc a -> acc +. expr_cost m tbl a) 0.0 args;
      exact_trips = true;
    }
  | Ast.Print args ->
    {
      cycles =
        List.fold_left (fun acc a -> acc +. expr_cost m tbl a) 10.0 args;
      exact_trips = true;
    }
  | Ast.Goto _ | Ast.Continue | Ast.Return | Ast.Stop ->
    { cycles = 1.0; exact_trips = true }
  | Ast.If (branches, els) ->
    (* max over the branches, plus condition evaluation *)
    let cond_cost =
      List.fold_left (fun acc (c, _) -> acc +. expr_cost m tbl c) 0.0 branches
    in
    let bodies = List.map snd branches @ [ els ] in
    let worst =
      List.fold_left
        (fun acc body ->
          let e = cost_body ~parallel_ok ~callee_cost m env body in
          if e.cycles > acc.cycles then e else acc)
        zero bodies
    in
    { worst with cycles = worst.cycles +. cond_cost }
  | Ast.Do (h, body) ->
    let trip, exact =
      match trip_count env s.Ast.sid h with
      | Some t -> (t, true)
      | None -> (default_trip, false)
    in
    let header_cost =
      expr_cost m tbl h.Ast.lo +. expr_cost m tbl h.Ast.hi
    in
    (* only a loop that actually forks serializes what's inside it; a
       serial loop passes the caller's context through, so a PARALLEL
       DO nested under serial loops still gets credit (the runtime
       forks it on every enclosing iteration) *)
    let runs_parallel = h.Ast.parallel && parallel_ok in
    let body_est =
      cost_body
        ~parallel_ok:(parallel_ok && not runs_parallel)
        ~callee_cost m env body
    in
    let per_iter = body_est.cycles +. m.Machine.loop_overhead in
    let cycles =
      if runs_parallel then
        let chunks = Float.of_int ((trip + m.Machine.processors - 1) / m.Machine.processors) in
        m.Machine.fork_join +. header_cost +. (chunks *. per_iter)
      else header_cost +. (float_of_int trip *. per_iter)
    in
    { cycles; exact_trips = exact && body_est.exact_trips }

and cost_body ~parallel_ok ~callee_cost m env body =
  List.fold_left
    (fun acc s -> acc +@ cost_stmt ~parallel_ok ~callee_cost m env s)
    zero body

let no_callees = fun _ -> None

let stmt_cost ?(machine = Machine.default) ?(callee_cost = no_callees) env s =
  cost_stmt ~parallel_ok:false ~callee_cost machine env s

let unit_cost ?(machine = Machine.default) ?(callee_cost = no_callees) env =
  cost_body ~parallel_ok:false ~callee_cost machine env
    env.Depenv.punit.Ast.body

let parallel_stmt_cost ?(machine = Machine.default) env s =
  cost_stmt ~parallel_ok:true ~callee_cost:no_callees machine env s

let parallel_unit_cost ?(machine = Machine.default) env =
  cost_body ~parallel_ok:true ~callee_cost:no_callees machine env
    env.Depenv.punit.Ast.body

let rank_loops ?(machine = Machine.default) ?(callee_cost = no_callees) env =
  let total = (unit_cost ~machine ~callee_cost env).cycles in
  let total = if total <= 0.0 then 1.0 else total in
  (* a loop's weight counts every dynamic execution: its own cost times
     the trip counts of the loops enclosing it *)
  let enclosing_factor (lp : Loopnest.loop) =
    List.fold_left
      (fun acc (outer : Loopnest.loop) ->
        let t =
          match
            trip_count env outer.Loopnest.lstmt.Ast.sid outer.Loopnest.header
          with
          | Some t -> t
          | None -> default_trip
        in
        acc *. float_of_int (max 1 t))
      1.0
      (Loopnest.enclosing env.Depenv.nest lp.Loopnest.lstmt.Ast.sid)
  in
  Loopnest.loops env.Depenv.nest
  |> List.map (fun (lp : Loopnest.loop) ->
         let c =
           (stmt_cost ~machine ~callee_cost env lp.Loopnest.lstmt).cycles
           *. enclosing_factor lp
         in
         (lp, c, c /. total))
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

let callee_costs ~env_of =
  let costs : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let in_progress = Hashtbl.create 8 in
  let rec cost_of name : float option =
    match Hashtbl.find_opt costs name with
    | Some c -> Some c
    | None ->
      if Hashtbl.mem in_progress name then None (* recursion: linkage only *)
      else (
        match env_of name with
        | None -> None
        | Some env ->
          Hashtbl.replace in_progress name ();
          let c = (unit_cost ~callee_cost:cost_of env).cycles in
          Hashtbl.remove in_progress name;
          Hashtbl.replace costs name c;
          Some c)
  in
  cost_of

let predicted_speedup ?(machine = Machine.default) env ~processors =
  let machine = Machine.with_processors processors machine in
  let seq = (unit_cost ~machine env).cycles in
  let par = (parallel_unit_cost ~machine env).cycles in
  if par <= 0.0 then 1.0 else seq /. par

let loop_speedup ?(machine = Machine.default) env s ~processors =
  let machine = Machine.with_processors processors machine in
  let seq = (stmt_cost ~machine env s).cycles in
  let par = (parallel_stmt_cost ~machine env s).cycles in
  if par <= 0.0 then 1.0 else seq /. par
