open Fortran_front
open Scalar_analysis
module Linear = Symbolic.Linear

type norm_loop = {
  nloop : Loopnest.loop;
  tau : string;
  step : int;
  lo_lin : Linear.t;
  trip : int option;
  trip_exact : bool;
  lo_known : bool;
}

type dim = Lin of Linear.t | Nonlinear

let tau_of sid = Printf.sprintf "%%t%d" sid
let aux_sym v loop_sid = Printf.sprintf "%%aux%s@%d" v loop_sid

let is_tau s = String.length s > 2 && s.[0] = '%' && s.[1] = 't'

let aux_sym_loop s =
  (* "%auxK@123" -> Some 123 *)
  if String.length s > 5 && String.sub s 0 4 = "%aux" then
    match String.index_opt s '@' with
    | Some i -> int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
    | None -> None
  else None

let floor_div a b =
  (* floor division, b <> 0 *)
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

(* Resolver for linearization at statement [sid]: rewrites normalized
   induction variables, auxiliary induction variables and proven
   constants.  [norm] lists the loops outermost first. *)
let resolver (env : Depenv.t) (norm : norm_loop list) sid : string -> Linear.t option =
  (* auxiliary induction variables per normalized loop, with the
     flattened source position of their increment *)
  let aux_table =
    if not env.Depenv.config.Depenv.use_symbolics then []
    else
      List.concat_map
        (fun nl ->
          let loop_sid = nl.nloop.Loopnest.lstmt.Ast.sid in
          let body = Loopnest.body_stmts env.Depenv.nest loop_sid in
          let pos_of target =
            let rec go i = function
              | [] -> None
              | (s : Ast.stmt) :: rest ->
                if s.Ast.sid = target then Some i else go (i + 1) rest
            in
            go 0 body
          in
          List.filter_map
            (fun (v, stride, inc_sid) ->
              match pos_of inc_sid with
              | Some p -> Some (v, (nl, stride, p, pos_of))
              | None -> None)
            (Varclass.aux_inductions env.Depenv.ctx nl.nloop.Loopnest.lstmt))
        norm
  in
  fun v ->
    match List.find_opt (fun nl -> String.equal nl.nloop.Loopnest.header.Ast.dvar v) norm with
    | Some nl ->
      (* I = lo + step·τ *)
      Some (Linear.add nl.lo_lin (Linear.scale nl.step (Linear.sym nl.tau)))
    | None -> (
      match Depenv.const_var_at env sid v with
      | Some n -> Some (Linear.const n)
      | None -> (
        match List.assoc_opt v aux_table with
        | Some (nl, stride, inc_pos, pos_of) -> (
          (* value of v at [sid] in iteration τ of nl's loop:
             v₀ + stride·τ (+ stride when sid follows the increment) *)
          match pos_of sid with
          | Some p ->
            let base =
              Linear.add
                (Linear.sym (aux_sym v nl.nloop.Loopnest.lstmt.Ast.sid))
                (Linear.scale stride (Linear.sym nl.tau))
            in
            Some
              (if p > inc_pos then Linear.add base (Linear.const stride)
               else base)
          | None -> None)
        | None -> None))

let normalize (env : Depenv.t) (loops : Loopnest.loop list) :
    norm_loop list option =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | (lp : Loopnest.loop) :: rest -> (
      let sid = lp.Loopnest.lstmt.Ast.sid in
      let h = lp.Loopnest.header in
      let step =
        match h.Ast.step with
        | None -> Some 1
        | Some e -> Depenv.int_at env sid e
      in
      match step with
      | None | Some 0 -> None
      | Some step -> (
        let resolve = resolver env (List.rev acc) sid in
        match Symbolic.linearize ~resolve h.Ast.lo with
        | None ->
          (* raw mode: τ = sign(step)·iv, unknown bounds *)
          let sgn = if step > 0 then 1 else -1 in
          let nl =
            { nloop = lp; tau = tau_of sid; step = sgn;
              lo_lin = Linear.const 0; trip = None; trip_exact = false;
              lo_known = false }
          in
          go (nl :: acc) rest
        | Some lo_lin ->
          let hi_lin = Symbolic.linearize ~resolve h.Ast.hi in
          let trip, trip_exact =
            match hi_lin with
            | None -> (None, false)
            | Some hi_lin -> (
              match Linear.is_const (Linear.sub hi_lin lo_lin) with
              | Some diff -> (Some (floor_div diff step), true)
              | None ->
                (* asserted ranges give a sound upper bound on the
                   trip count for positive steps *)
                if step > 0 then
                  match
                    Depenv.upper_bound_at env sid
                      (Ast.sub h.Ast.hi h.Ast.lo)
                  with
                  | Some diff -> (Some (floor_div diff step), false)
                  | None -> (None, false)
                else (None, false))
          in
          let nl =
            { nloop = lp; tau = tau_of sid; step; lo_lin; trip; trip_exact;
              lo_known = true }
          in
          go (nl :: acc) rest))
  in
  go [] loops

(* What [analyze_ref] linearizes for one subscript: its forward-
   substituted form, unwrapped through asserted-injective index arrays
   (A(IDX(e)) and A(IDX(e')) touch the same element exactly when
   e = e', so the inner subscript is tested). *)
let rec dim_form (env : Depenv.t) sid e =
  let e' =
    if env.Depenv.config.Depenv.use_symbolics then
      Symbolic.substitute env.Depenv.ctx env.Depenv.cfg env.Depenv.reaching
        sid e
    else e
  in
  match e' with
  | Ast.Index (b, [ inner ])
    when List.mem b env.Depenv.asserts.Depenv.asserted_injective ->
    dim_form env sid inner
  | _ -> e'

let analyze_ref (env : Depenv.t) ~(norm : norm_loop list) sid
    (subscripts : Ast.expr list) : dim list =
  let use_symbolics = env.Depenv.config.Depenv.use_symbolics in
  let resolve = resolver env norm sid in
  List.map
    (fun e ->
      match Symbolic.linearize ~resolve (dim_form env sid e) with
      | Some lin ->
        if use_symbolics || List.for_all is_tau (Linear.syms lin) then Lin lin
        else Nonlinear (* symbolic terms unusable without symbolic analysis *)
      | None -> Nonlinear)
    subscripts

let syms_ok_impl (env : Depenv.t) ~(common : norm_loop list) ~src ~dst syms =
  let outermost = match common with [] -> None | nl :: _ -> Some nl in
  let same_defs v =
    let a = Reaching.defs_of_use env.Depenv.reaching src v in
    let b = Reaching.defs_of_use env.Depenv.reaching dst v in
    List.length a = List.length b
    && List.for_all2 (fun x y -> Reaching.def_compare x y = 0) a b
  in
  List.for_all
    (fun s ->
      match aux_sym_loop s with
      | Some loop_sid -> (
        (* an auxiliary-induction entry value is only a well-defined
           single symbol when its loop is the outermost common loop *)
        match outermost with
        | Some nl -> nl.nloop.Loopnest.lstmt.Ast.sid = loop_sid
        | None -> false)
      | None ->
        same_defs s
        &&
        (match outermost with
        | Some nl ->
          Symbolic.invariant_in env.Depenv.ctx nl.nloop.Loopnest.lstmt s
        | None -> true))
    syms

let dims_syms dims =
  List.concat_map (function Lin l -> Linear.syms l | Nonlinear -> []) dims
  |> List.sort_uniq String.compare
  |> List.filter (fun s -> not (is_tau s))

let dim_symbols_ok env ~common ~src ~dst ((d1, d2) : dim * dim) =
  syms_ok_impl env ~common ~src ~dst (dims_syms [ d1; d2 ])
