open Fortran_front
open Dependence

let perfect_pair u sid =
  match Rewrite.find_do u sid with
  | Some (outer, h1, [ ({ Ast.node = Ast.Do (h2, inner_body); _ } as inner) ])
    ->
    Some (outer, h1, inner, h2, inner_body)
  | Some _ | None -> None

let apply (u : Ast.program_unit) sid ~factor : Ast.program_unit =
  match perfect_pair u sid with
  | None -> invalid_arg "Skew.apply: not a perfect nest"
  | Some (outer, h1, inner, h2, inner_body) ->
    let i = Ast.Var h1.Ast.dvar in
    let shift e =
      Ast.simplify (Ast.add e (Ast.mul (Ast.int_ factor) i))
    in
    (* J := J' − f·I in the body *)
    let j_new =
      Ast.simplify
        (Ast.sub (Ast.Var h2.Ast.dvar) (Ast.mul (Ast.int_ factor) i))
    in
    let body' = Rewrite.subst_in_stmts h2.Ast.dvar j_new inner_body in
    let h2' = { h2 with Ast.lo = shift h2.Ast.lo; hi = shift h2.Ast.hi } in
    let inner' = { inner with Ast.node = Ast.Do (h2', body') } in
    let outer' = { outer with Ast.node = Ast.Do (h1, [ inner' ]) } in
    Rewrite.replace_stmt u sid [ outer' ]

(* The wavefront recipe's second candidate: the skewed nest,
   interchanged, when interchange is safe on the skewed one. *)
let skew_then_interchange ~analyze (u : Ast.program_unit) sid ~factor =
  let skewed = apply u sid ~factor in
  let env1, ddg1 = analyze skewed in
  let di = Interchange.diagnose env1 ddg1 sid in
  if di.Diagnosis.applicable && di.Diagnosis.safe then
    Some (Interchange.apply skewed sid)
  else None

let diagnose ~analyze (env : Depenv.t) (_ : Ddg.t) sid ~factor : Diagnosis.t =
  match perfect_pair env.Depenv.punit sid with
  | None -> Diagnosis.inapplicable "not a perfect two-deep loop nest"
  | Some (_, _, inner, _, _) ->
    if factor = 0 then Diagnosis.inapplicable "skew factor must be nonzero"
    else begin
      (* Skewing is always safe; it pays off when the wavefront recipe
         (skew, interchange, parallelize the new inner loop) works.
         Evaluate the recipe on the candidate directly. *)
      let profitable, why =
        match skew_then_interchange ~analyze env.Depenv.punit sid ~factor with
        | Some candidate ->
          let env2, ddg2 = analyze candidate in
          if Parallelize.parallelizable env2 ddg2 inner.Ast.sid then
            (true, "after interchange the inner loop parallelizes (wavefront)")
          else (false, "inner loop still carries dependences after the recipe")
        | None -> (false, "interchange is not possible after skewing")
      in
      Diagnosis.make ~applicable:true ~safe:true ~profitable ~notes:[ why ] ()
    end
