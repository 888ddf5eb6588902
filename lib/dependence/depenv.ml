open Fortran_front
open Scalar_analysis

type config = {
  use_constants : bool;
  use_symbolics : bool;
  use_privatization : bool;
  recognize_reductions : bool;
  use_array_privatization : bool;
}

let full_config =
  {
    use_constants = true;
    use_symbolics = true;
    use_privatization = true;
    recognize_reductions = true;
    use_array_privatization = true;
  }

let base_config =
  {
    use_constants = false;
    use_symbolics = false;
    use_privatization = false;
    recognize_reductions = false;
    use_array_privatization = false;
  }

type assertions = {
  asserted_values : (string * int) list;
  asserted_ranges : (string * int * int) list;
  asserted_injective : string list;
}

let no_assertions =
  { asserted_values = []; asserted_ranges = []; asserted_injective = [] }

type call_refs = Ast.stmt -> (string * Ast.expr list option * bool) list

type alias_oracle = string -> string -> [ `Aligned | `May | `No ]

type t = {
  punit : Ast.program_unit;
  tbl : Symbol.table;
  ctx : Defuse.ctx;
  cfg : Cfg.t;
  reaching : Reaching.t;
  liveness : Liveness.t;
  constants : Constants.t;
  control : Control_dep.edge list;
  nest : Loopnest.t;
  config : config;
  asserts : assertions;
  call_refs : call_refs;
  alias : alias_oracle;
}

(* Without interprocedural sections: a call wholly reads and writes
   every array it may touch per the (possibly conservative) Mod/Ref
   effects. *)
let default_call_refs tbl ctx (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Call _ ->
    let eff = Defuse.effects_of_call ctx s in
    let arrays l = List.filter (Symbol.is_array tbl) l in
    List.map (fun a -> (a, None, true)) (arrays eff.Defuse.ce_mods)
    @ List.map (fun a -> (a, None, false)) (arrays eff.Defuse.ce_refs)
  | _ -> []

let make ?oracle ?call_refs ?(alias = fun _ _ -> `No)
    ?(config = full_config) ?(asserts = no_assertions) (syntax : Unit_syntax.t) : t =
  let punit = Unit_syntax.unit_ syntax in
  (* scalar-analysis passes emit to the process-default sink: the
     environment is rebuilt from many call sites (engine, interproc,
     oracle) that have no sink of their own to thread through *)
  let tel = Telemetry.default () in
  Telemetry.span tel "analysis.depenv" ~args:[ ("unit", punit.Ast.uname) ]
  @@ fun () ->
  let pass name f = Telemetry.span tel ("analysis." ^ name) f in
  let tbl = Unit_syntax.symbols syntax and cfg = Unit_syntax.cfg syntax in
  let ctx = pass "defuse" (fun () -> Defuse.make ?oracle tbl punit) in
  let reaching = pass "reaching" (fun () -> Reaching.analyze ctx cfg) in
  let liveness = pass "liveness" (fun () -> Liveness.analyze ctx cfg) in
  let constants = pass "constants" (fun () -> Constants.analyze ctx cfg) in
  let control = Unit_syntax.control syntax in
  let nest = Unit_syntax.nest syntax in
  let call_refs =
    match call_refs with
    | Some f -> f
    | None -> default_call_refs tbl ctx
  in
  { punit; tbl; ctx; cfg; reaching; liveness; constants; control; nest;
    config; asserts; call_refs; alias }

let stmt t sid = Cfg.stmt_of t.cfg (Cfg.Stmt sid)

let const_var_at t sid v =
  match List.assoc_opt v t.asserts.asserted_values with
  | Some n -> Some n
  | None -> (
    match Symbol.param_value t.tbl v with
    | Some n -> Some n
    | None ->
      if t.config.use_constants then
        match Constants.const_of_var t.constants sid v with
        | Some (Constants.Cint n) -> Some n
        | _ -> None
      else None)

let int_at t sid e =
  match
    Constants.eval_with
      (fun v -> Option.map (fun n -> Constants.Cint n) (const_var_at t sid v))
      e
  with
  | Some (Constants.Cint n) -> Some n
  | _ -> None

(* interval arithmetic, upper bounds only (None = +inf) *)
let upper_bound_at t sid e =
  let rec hi e =
    match (e : Ast.expr) with
    | Ast.Int n -> Some n
    | Ast.Var v -> (
      match const_var_at t sid v with
      | Some n -> Some n
      | None -> (
        match
          List.find_opt (fun (x, _, _) -> String.equal x v)
            t.asserts.asserted_ranges
        with
        | Some (_, _, ub) -> Some ub
        | None -> None))
    | Ast.Bin (Ast.Add, a, b) -> (
      match (hi a, hi b) with Some x, Some y -> Some (x + y) | _ -> None)
    | Ast.Bin (Ast.Sub, a, b) -> (
      match (hi a, lo b) with Some x, Some y -> Some (x - y) | _ -> None)
    | Ast.Bin (Ast.Mul, Ast.Int k, a) | Ast.Bin (Ast.Mul, a, Ast.Int k) ->
      if k >= 0 then Option.map (fun x -> k * x) (hi a)
      else Option.map (fun x -> k * x) (lo a)
    | Ast.Un (Ast.Neg, a) -> Option.map (fun x -> -x) (lo a)
    | _ -> None
  and lo e =
    match (e : Ast.expr) with
    | Ast.Int n -> Some n
    | Ast.Var v -> (
      match const_var_at t sid v with
      | Some n -> Some n
      | None -> (
        match
          List.find_opt (fun (x, _, _) -> String.equal x v)
            t.asserts.asserted_ranges
        with
        | Some (_, lb, _) -> Some lb
        | None -> None))
    | Ast.Bin (Ast.Add, a, b) -> (
      match (lo a, lo b) with Some x, Some y -> Some (x + y) | _ -> None)
    | Ast.Bin (Ast.Sub, a, b) -> (
      match (lo a, hi b) with Some x, Some y -> Some (x - y) | _ -> None)
    | Ast.Bin (Ast.Mul, Ast.Int k, a) | Ast.Bin (Ast.Mul, a, Ast.Int k) ->
      if k >= 0 then Option.map (fun x -> k * x) (lo a)
      else Option.map (fun x -> k * x) (hi a)
    | Ast.Un (Ast.Neg, a) -> Option.map (fun x -> -x) (hi a)
    | _ -> None
  in
  hi e
