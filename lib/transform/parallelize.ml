open Fortran_front
open Scalar_analysis
open Dependence

type verdict = {
  blockers : Ddg.dep list;
  escapees : string list Lazy.t;
  inductions : string list Lazy.t;
}

(* Scalars whose last value escapes the loop: a parallel execution
   would observe a different final value.  Includes the induction
   variable when it is read after the loop. *)
let last_value_escapees (env : Depenv.t) loop =
  Varclass.classify ~cfg:env.Depenv.cfg env.Depenv.ctx env.Depenv.liveness loop
  |> Varclass.all
  |> List.filter_map (function
       | v, Varclass.Private { needs_last_value = true } -> Some v
       | _ -> None)

let verdict ?(user_private = []) (env : Depenv.t) ~carried sid =
  let shared v = not (List.mem v user_private) in
  let of_loop f =
    lazy
      (match Depenv.stmt env sid with
      | Some ({ Ast.node = Ast.Do _; _ } as loop) -> List.filter shared (f env loop)
      | _ -> [])
  in
  {
    blockers =
      List.filter
        (fun (d : Ddg.dep) -> not d.Ddg.is_scalar || shared d.Ddg.var)
        (Ddg.carried_blocking env sid carried);
    escapees = of_loop last_value_escapees;
    inductions = of_loop Indsub.needed;
  }

let safe v =
  v.blockers = [] && Lazy.force v.escapees = [] && Lazy.force v.inductions = []

let parallelizable env ddg sid =
  safe (verdict env ~carried:(Ddg.carried_by ddg sid) sid)

let diagnose ?verdict:given (env : Depenv.t) (ddg : Ddg.t) sid : Diagnosis.t =
  match Rewrite.find_do env.Depenv.punit sid with
  | None -> Diagnosis.inapplicable "not a DO loop"
  | Some (loop, h, body) ->
    let v =
      match given with
      | Some v -> v
      | None -> verdict env ~carried:(Ddg.carried_by ddg sid) sid
    in
    (* profitable when the machine model predicts parallel execution
       beats sequential: the loop's work spread over the processors
       plus fork/join must undercut the sequential time *)
    let profitable =
      body <> []
      &&
      let m = Perf.Machine.default in
      let seq = (Perf.Estimator.stmt_cost ~machine:m env loop).Perf.Estimator.cycles in
      let t =
        match Depenv.int_at env sid (Ast.Bin (Ast.Sub, h.Ast.hi, h.Ast.lo)) with
        | Some d -> max 1 (d + 1)
        | None -> Perf.Estimator.default_trip
      in
      let per_iter = seq /. float_of_int t in
      let chunks = (t + m.Perf.Machine.processors - 1) / m.Perf.Machine.processors in
      let par = m.Perf.Machine.fork_join +. (float_of_int chunks *. per_iter) in
      par < seq
    in
    let reasons =
      (if h.Ast.parallel then [ Diagnosis.Note "loop is already parallel" ]
       else [])
      @ List.map
          (fun (d : Ddg.dep) ->
            Diagnosis.Dep
              { dep_id = d.Ddg.dep_id;
                text = Format.asprintf "blocked by %a" Ddg.pp_dep d })
          v.blockers
      @ List.map (fun v -> Diagnosis.Last_value v) (Lazy.force v.escapees)
      @ List.map (fun v -> Diagnosis.Induction v) (Lazy.force v.inductions)
      @
      if profitable then []
      else
        [ Diagnosis.Granularity
            "fork/join overhead exceeds the parallel gain (granularity)" ]
    in
    Diagnosis.make ~applicable:(not h.Ast.parallel) ~safe:(safe v) ~profitable
      ~reasons ()

let set_parallel value u sid =
  Rewrite.update_stmt u sid (fun s ->
      match s.Ast.node with
      | Ast.Do (h, body) ->
        { s with Ast.node = Ast.Do ({ h with Ast.parallel = value }, body) }
      | _ -> s)

let apply u sid = set_parallel true u sid
let apply_sequentialize u sid = set_parallel false u sid
