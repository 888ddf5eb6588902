open Fortran_front
open Scalar_analysis
open Dependence

type t = {
  p_iv : string;
  p_privates : string list;
  p_inductions : (string * int) list;
  p_reductions : (string * Varclass.reduction_op) list;
  p_arrays : string list;
}

let trivial iv =
  {
    p_iv = iv;
    p_privates = [];
    p_inductions = [];
    p_reductions = [];
    p_arrays = [];
  }

let of_loop (env : Depenv.t) (lp : Loopnest.loop) =
  let iv = lp.Loopnest.header.Ast.dvar in
  let classes =
    Varclass.classify ~cfg:env.Depenv.cfg env.Depenv.ctx env.Depenv.liveness
      lp.Loopnest.lstmt
  in
  let privates, inductions, reductions =
    List.fold_left
      (fun (ps, is, rs) (v, c) ->
        if String.equal v iv then (ps, is, rs)
        else
          match c with
          | Varclass.Private _ -> (v :: ps, is, rs)
          | Varclass.Induction { stride = Some l } -> (
            (* an auxiliary induction is only executable in parallel
               when its per-iteration stride is a known constant: the
               runtime then materializes the closed form.  Varclass
               only emits constant strides today; anything else falls
               back to a plain private copy. *)
            match Symbolic.Linear.is_const l with
            | Some c -> (ps, (v, c) :: is, rs)
            | None -> (v :: ps, is, rs))
          | Varclass.Induction { stride = None } -> (v :: ps, is, rs)
          | Varclass.Reduction op -> (ps, is, (v, op) :: rs)
          | Varclass.Shared_safe | Varclass.Shared_unsafe -> (ps, is, rs))
      ([], [], []) (Varclass.all classes)
  in
  {
    p_iv = iv;
    p_privates = List.rev privates;
    p_inductions = List.rev inductions;
    p_reductions = List.rev reductions;
    p_arrays = Arrayprivate.in_loop env lp.Loopnest.lstmt.Ast.sid;
  }

let build ?summary (program : Ast.program) =
  let plans = Hashtbl.create 16 in
  let summary =
    lazy (match summary with Some s -> s | None -> Interproc.Summary.analyze program)
  in
  List.iter
    (fun (u : Ast.program_unit) ->
      let has_parallel =
        Ast.fold_stmts
          (fun acc (s : Ast.stmt) ->
            acc
            || match s.Ast.node with
               | Ast.Do (h, _) -> h.Ast.parallel
               | _ -> false)
          false u.Ast.body
      in
      if has_parallel then begin
        let env = Interproc.Summary.env_for (Lazy.force summary) u in
        List.iter
          (fun (lp : Loopnest.loop) ->
            if lp.Loopnest.header.Ast.parallel then
              Hashtbl.replace plans lp.Loopnest.lstmt.Ast.sid (of_loop env lp))
          (Loopnest.loops env.Depenv.nest)
      end)
    program.Ast.punits;
  plans
