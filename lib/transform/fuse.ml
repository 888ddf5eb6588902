open Fortran_front
open Dependence

(* The two loops must be adjacent siblings somewhere in the unit. *)
let rec adjacent_in sid1 sid2 (stmts : Ast.stmt list) : bool =
  match stmts with
  | a :: (b :: _ as rest) ->
    (a.Ast.sid = sid1 && b.Ast.sid = sid2)
    || adjacent_in sid1 sid2 rest
    || adjacent_in_stmt sid1 sid2 a
  | [ a ] -> adjacent_in_stmt sid1 sid2 a
  | [] -> false

and adjacent_in_stmt sid1 sid2 (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.If (branches, els) ->
    List.exists (fun (_, b) -> adjacent_in sid1 sid2 b) branches
    || adjacent_in sid1 sid2 els
  | Ast.Do (_, body) -> adjacent_in sid1 sid2 body
  | _ -> false

let headers_conform (h1 : Ast.do_header) (h2 : Ast.do_header) =
  Ast.expr_equal h1.Ast.lo h2.Ast.lo
  && Ast.expr_equal h1.Ast.hi h2.Ast.hi
  && (match (h1.Ast.step, h2.Ast.step) with
     | None, None -> true
     | Some a, Some b -> Ast.expr_equal a b
     | None, Some (Ast.Int 1) | Some (Ast.Int 1), None -> true
     | _ -> false)

let apply (u : Ast.program_unit) sid1 sid2 : Ast.program_unit =
  match (Rewrite.find_do u sid1, Rewrite.find_do u sid2) with
  | Some (s1, h1, b1), Some (_, h2, b2) ->
    let b2 =
      if String.equal h1.Ast.dvar h2.Ast.dvar then b2
      else
        Rewrite.rename_var ~old_name:h2.Ast.dvar ~new_name:h1.Ast.dvar b2
    in
    let fused = { s1 with Ast.node = Ast.Do (h1, b1 @ b2) } in
    let u = Rewrite.replace_stmt u sid2 [] in
    Rewrite.replace_stmt u sid1 [ fused ]
  | _ -> invalid_arg "Fuse.apply: not two DO loops"

let diagnose ~analyze (env : Depenv.t) (_ : Ddg.t) sid1 sid2 : Diagnosis.t =
  match (Rewrite.find_do env.Depenv.punit sid1, Rewrite.find_do env.Depenv.punit sid2) with
  | None, _ | _, None -> Diagnosis.inapplicable "both operands must be DO loops"
  | Some (_, h1, b1), Some (_, h2, b2) ->
    if not (adjacent_in sid1 sid2 env.Depenv.punit.Ast.body) then
      Diagnosis.inapplicable "loops are not adjacent"
    else if not (headers_conform h1 h2) then
      Diagnosis.inapplicable "loop bounds do not conform"
    else begin
      (* a scalar written by one loop and referenced by the other
         changes meaning under fusion (the reader originally saw the
         writer's final value); the dependence graph cannot flag the
         cases classification hides (private/induction scalars), so
         check directly *)
      let scalars f ctx stmts =
        List.concat_map
          (fun s ->
            List.filter
              (fun v -> not (Fortran_front.Symbol.is_array (Scalar_analysis.Defuse.table ctx) v))
              (f ctx s))
          (List.rev (Ast.fold_stmts (fun acc s -> s :: acc) [] stmts))
        |> List.sort_uniq String.compare
      in
      let ctx = env.Depenv.ctx in
      let w1 = scalars Scalar_analysis.Defuse.may_defs ctx b1
      and r1 = scalars Scalar_analysis.Defuse.uses ctx b1
      and w2 = scalars Scalar_analysis.Defuse.may_defs ctx b2
      and r2 = scalars Scalar_analysis.Defuse.uses ctx b2 in
      let iv = h1.Ast.dvar in
      let crossing =
        List.filter
          (fun v ->
            (not (String.equal v iv))
            && not (String.equal v h2.Ast.dvar))
          (List.filter (fun v -> List.mem v r2 || List.mem v w2) w1
          @ List.filter (fun v -> List.mem v r1 || List.mem v w1) w2)
        |> List.sort_uniq String.compare
      in
      if crossing <> [] then
        Diagnosis.make ~applicable:true ~safe:false ~profitable:false
          ~notes:
            (List.map
               (fun v ->
                 Printf.sprintf
                   "scalar %s is written by one loop and touched by the other"
                   v)
               crossing)
          ()
      else begin
      (* re-analyze the fused candidate *)
      let body2_sids =
        Ast.fold_stmts (fun acc s -> s.Ast.sid :: acc) [] b2
      in
      let body1_sids =
        Ast.fold_stmts (fun acc s -> s.Ast.sid :: acc) [] b1
      in
      let env', ddg' = analyze (apply env.Depenv.punit sid1 sid2) in
      let preventing =
        List.filter
          (fun (d : Ddg.dep) ->
            d.Ddg.kind <> Ddg.Control
            && d.Ddg.carrier = Some sid1
            && List.mem d.Ddg.src body2_sids
            && List.mem d.Ddg.dst body1_sids)
          ddg'.Ddg.deps
      in
      let safe = preventing = [] in
      let profitable =
        Parallelize.parallelizable env' ddg' sid1 || List.length (b1 @ b2) > 1
      in
      let reasons =
        (* ids refer to the re-analyzed fused candidate's graph *)
        List.map
          (fun (d : Ddg.dep) ->
            Diagnosis.Dep
              { dep_id = d.Ddg.dep_id;
                text = Format.asprintf "fusion-preventing %a" Ddg.pp_dep d })
          preventing
      in
      Diagnosis.make ~applicable:true ~safe ~profitable ~reasons ()
      end
    end
