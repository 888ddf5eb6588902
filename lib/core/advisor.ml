open Fortran_front
open Dependence

type suggestion = {
  loop : Ast.stmt_id;
  action : string;
  why : string;
  share : float;
  diagnosis : Transform.Diagnosis.t option;
}

let pp_suggestion ppf s =
  Format.fprintf ppf "loop s%d (%.0f%% of time): %s — %s" s.loop
    (100.0 *. s.share) s.action s.why

let next_target (t : Session.t) =
  Perf.Estimator.rank_loops ~callee_cost:(Session.callee_cost t) (Session.env t)
  |> List.find_opt (fun ((lp : Loopnest.loop), _, _) ->
         (not lp.Loopnest.header.Ast.parallel)
         && not
              (List.exists
                 (fun (p : Loopnest.loop) -> p.Loopnest.header.Ast.parallel)
                 (Loopnest.enclosing (Session.env t).Depenv.nest
                    lp.Loopnest.lstmt.Ast.sid)))
  |> Option.map (fun (lp, _, share) -> (lp, share))

let advise (t : Session.t) : suggestion list =
  let ranked =
    Perf.Estimator.rank_loops ~callee_cost:(Session.callee_cost t)
      (Session.env t)
  in
  let suggestions = ref [] in
  let add s = suggestions := s :: !suggestions in
  List.iter
    (fun ((lp : Loopnest.loop), _, share) ->
      let sid = lp.Loopnest.lstmt.Ast.sid in
      if not lp.Loopnest.header.Ast.parallel then begin
        (* 1. direct parallelization *)
        (match Session.diagnose t "parallelize" (Transform.Catalog.On_loop sid) with
        | Ok d when Transform.Diagnosis.ok d && d.Transform.Diagnosis.profitable ->
          add
            { loop = sid; action = "parallelize"; why = "no carried dependences";
              share; diagnosis = Some d }
        | Ok d when d.Transform.Diagnosis.applicable && not d.Transform.Diagnosis.safe
          -> begin
            (* 2. enabling transformations *)
            (match
               Session.diagnose t "interchange" (Transform.Catalog.On_loop sid)
             with
            | Ok di when Transform.Diagnosis.ok di && di.Transform.Diagnosis.profitable ->
              add
                { loop = sid; action = "interchange";
                  why = "moves parallelism outward"; share;
                  diagnosis = Some di }
            | _ -> ());
            (match
               Session.diagnose t "distribute" (Transform.Catalog.On_loop sid)
             with
            | Ok dd when Transform.Diagnosis.ok dd && dd.Transform.Diagnosis.profitable ->
              add
                { loop = sid; action = "distribute";
                  why = "separates the recurrence from parallel work"; share;
                  diagnosis = Some dd }
            | _ -> ());
            (match
               Session.diagnose t "skew" (Transform.Catalog.With_factor (sid, 1))
             with
            | Ok ds when Transform.Diagnosis.ok ds && ds.Transform.Diagnosis.profitable ->
              add
                { loop = sid; action = "skew";
                  why = "enables interchange for a wavefront"; share;
                  diagnosis = Some ds }
            | _ -> ());
            let scalars f = List.filter_map f d.Transform.Diagnosis.reasons in
            let escapees =
              scalars (function Transform.Diagnosis.Last_value v -> Some v | _ -> None)
            and inductions =
              scalars (function Transform.Diagnosis.Induction v -> Some v | _ -> None)
            in
            (* 3. last-value escapees: scalar expansion fixes them *)
            List.iter
              (fun v ->
                match
                  Session.diagnose t "expand" (Transform.Catalog.With_var (sid, v))
                with
                | Ok de when Transform.Diagnosis.ok de ->
                  add
                    { loop = sid; action = "expand";
                      why =
                        Printf.sprintf
                          "%s's last value escapes: expansion removes the blocker" v;
                      share; diagnosis = Some de }
                | _ -> ())
              escapees;
            (* 3b. induction accumulators: substitution fixes them *)
            List.iter
              (fun v ->
                add
                  { loop = sid; action = "indsub";
                    why =
                      Printf.sprintf
                        "%s is an induction accumulator: substitution makes the \
                         loop order independent"
                        v;
                    share; diagnosis = None })
              inductions;
            (* 4. assertion hints: every blocking reason is a pending edge *)
            let blockers = Session.blocking t sid in
            if
              blockers <> [] && escapees = [] && inductions = []
              && List.for_all
                   (fun (d : Ddg.dep) ->
                     View.status (Session.view t) d = Marking.Pending)
                   blockers
            then
              add
                { loop = sid; action = "assert";
                  why =
                    Printf.sprintf
                      "only pending dependences block (%s): an assertion or \
                       rejection would parallelize"
                      (String.concat ", "
                         (List.sort_uniq String.compare
                            (List.map (fun (d : Ddg.dep) -> d.Ddg.var) blockers)));
                  share; diagnosis = None }
          end
        | _ -> ())
      end)
    ranked;
  List.rev !suggestions
  |> List.stable_sort (fun a b -> compare b.share a.share)
