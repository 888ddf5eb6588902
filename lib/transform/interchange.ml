open Fortran_front
open Dependence

let perfect_pair u sid =
  match Rewrite.find_do u sid with
  | Some (outer, h1, [ ({ Ast.node = Ast.Do (h2, inner_body); _ } as inner) ])
    ->
    Some (outer, h1, inner, h2, inner_body)
  | Some _ | None -> None

let header_vars (h : Ast.do_header) =
  List.concat_map Ast.expr_vars
    ([ h.Ast.lo; h.Ast.hi ] @ Option.to_list h.Ast.step)

(* A skewed (trapezoidal) nest: inner bounds are [e + 1·I] for the
   outer induction variable I.  Returns the I-free parts of the inner
   bounds when both have coefficient exactly 1 (the form produced by
   [Skew] with factor 1). *)
let trapezoid_offsets (h1 : Ast.do_header) (h2 : Ast.do_header) :
    (Ast.expr * Ast.expr) option =
  let iv = h1.Ast.dvar in
  let split e =
    let resolve v =
      if String.equal v iv then None
      else Some (Scalar_analysis.Symbolic.Linear.sym v)
    in
    match Scalar_analysis.Symbolic.linearize ~resolve e with
    | Some lin when Scalar_analysis.Symbolic.Linear.coeff iv lin = 1 ->
      (* e − I, rebuilt from the linear form so it is clean *)
      let _, rest = Scalar_analysis.Symbolic.Linear.split iv lin in
      Some (Scalar_analysis.Symbolic.Linear.to_expr rest)
    | _ -> None
  in
  if h2.Ast.step <> None && h2.Ast.step <> Some (Ast.Int 1) then None
  else
    match (split h2.Ast.lo, split h2.Ast.hi) with
    | Some lo0, Some hi0 -> Some (lo0, hi0)
    | _ -> None

let rectangular h1 h2 =
  (not (List.mem h1.Ast.dvar (header_vars h2)))
  && not (List.mem h2.Ast.dvar (header_vars h1))

let diagnose (env : Depenv.t) (ddg : Ddg.t) sid : Diagnosis.t =
  match perfect_pair env.Depenv.punit sid with
  | None ->
    Diagnosis.inapplicable "not a perfect two-deep loop nest"
  | Some (outer, h1, inner, h2, _) ->
    let shape =
      if rectangular h1 h2 then `Rect
      else
        match trapezoid_offsets h1 h2 with
        | Some _ when not (List.mem h2.Ast.dvar (header_vars h1)) -> `Trap
        | _ -> `Bad
    in
    if shape = `Bad then
      Diagnosis.inapplicable
        "bounds are neither rectangular nor a unit-skewed trapezoid"
    else begin
      (* position of the two loops in any dependence's common-loop
         vector: depth-1 and depth *)
      let p_outer =
        match Loopnest.find env.Depenv.nest outer.Ast.sid with
        | Some lp -> lp.Loopnest.depth - 1
        | None -> 0
      in
      let p_inner = p_outer + 1 in
      let deps = Ddg.deps_in_loop env ddg inner.Ast.sid in
      let prevents (d : Ddg.dep) =
        if d.Ddg.kind = Ddg.Control then false
        else if d.Ddg.dirs = [] then
          (* unknown directions (scalar deps): conservative when the
             dependence is carried by either of the two loops *)
          d.Ddg.carrier = Some outer.Ast.sid || d.Ddg.carrier = Some inner.Ast.sid
        else
          List.exists
            (fun dv ->
              Array.length dv > p_inner
              && dv.(p_outer) = Dtest.Dlt
              && dv.(p_inner) = Dtest.Dgt)
            d.Ddg.dirs
      in
      let blockers = List.filter prevents deps in
      let safe = blockers = [] in
      let profitable =
        Parallelize.parallelizable env ddg inner.Ast.sid
        && not (Parallelize.parallelizable env ddg outer.Ast.sid)
      in
      let reasons =
        List.map
          (fun (d : Ddg.dep) ->
            Diagnosis.Dep
              { dep_id = d.Ddg.dep_id;
                text = Format.asprintf "prevented by %a" Ddg.pp_dep d })
          blockers
        @ (if shape = `Trap then
             [ Diagnosis.Note "trapezoidal (skewed) nest: bounds will use MAX/MIN" ]
           else [])
        @
        if profitable then [ Diagnosis.Note "moves parallelism outward" ]
        else [ Diagnosis.Granularity "no obvious granularity gain" ]
      in
      Diagnosis.make ~applicable:true ~safe ~profitable ~reasons ()
    end

let apply (u : Ast.program_unit) sid : Ast.program_unit =
  match perfect_pair u sid with
  | None -> invalid_arg "Interchange.apply: not a perfect nest"
  | Some (outer, h1, inner, h2, inner_body) ->
    if rectangular h1 h2 then begin
      let new_inner = { inner with Ast.node = Ast.Do (h1, inner_body) } in
      let new_outer = { outer with Ast.node = Ast.Do (h2, [ new_inner ]) } in
      Rewrite.replace_stmt u sid [ new_outer ]
    end
    else
      match trapezoid_offsets h1 h2 with
      | None -> invalid_arg "Interchange.apply: unsupported nest shape"
      | Some (lo0, hi0) ->
        (* J ∈ [lo0+I, hi0+I], I ∈ [lo1, hi1]  becomes
           J ∈ [lo0+lo1, hi0+hi1], I ∈ [MAX(lo1, J−hi0), MIN(hi1, J−lo0)] *)
        let j = Ast.Var h2.Ast.dvar in
        let new_outer_h =
          {
            h2 with
            Ast.lo = Ast.simplify (Ast.add lo0 h1.Ast.lo);
            hi = Ast.simplify (Ast.add hi0 h1.Ast.hi);
          }
        in
        let new_inner_h =
          {
            h1 with
            Ast.lo =
              Ast.Index ("MAX", [ h1.Ast.lo; Ast.simplify (Ast.sub j hi0) ]);
            hi =
              Ast.Index ("MIN", [ h1.Ast.hi; Ast.simplify (Ast.sub j lo0) ]);
          }
        in
        let new_inner = { inner with Ast.node = Ast.Do (new_inner_h, inner_body) } in
        let new_outer = { outer with Ast.node = Ast.Do (new_outer_h, [ new_inner ]) } in
        Rewrite.replace_stmt u sid [ new_outer ]
