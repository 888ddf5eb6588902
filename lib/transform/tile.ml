open Fortran_front
open Dependence

let inner_of u sid =
  match Rewrite.find_do u sid with
  | Some (_, _, [ ({ Ast.node = Ast.Do _; _ } as inner) ]) -> Some inner
  | Some _ | None -> None

(* Build the stripped candidate: strip the inner loop by [block]. *)
let stripped_candidate (env : Depenv.t) sid ~block =
  match inner_of env.Depenv.punit sid with
  | None -> None
  | Some inner -> Some (Strip_mine.apply env inner.Ast.sid ~block)

let diagnose ~analyze (env : Depenv.t) (ddg : Ddg.t) sid ~block : Diagnosis.t =
  match inner_of env.Depenv.punit sid with
  | None -> Diagnosis.inapplicable "not a perfect two-deep loop nest"
  | Some inner -> (
    if block < 2 then Diagnosis.inapplicable "block size must be at least 2"
    else
      let strip_diag = Strip_mine.diagnose env ddg inner.Ast.sid ~block in
      if not strip_diag.Diagnosis.applicable then strip_diag
      else
        match stripped_candidate env sid ~block with
        | None -> Diagnosis.inapplicable "could not strip the inner loop"
        | Some candidate ->
          let env1, ddg1 = analyze candidate in
          let di = Interchange.diagnose env1 ddg1 sid in
          let reasons =
            Diagnosis.Note "tiling = strip inner + interchange strip loop outward"
            :: di.Diagnosis.reasons
          in
          Diagnosis.make ~applicable:di.Diagnosis.applicable
            ~safe:di.Diagnosis.safe ~profitable:true ~reasons ())

let apply (env : Depenv.t) (ddg : Ddg.t) sid ~block : Ast.program_unit =
  ignore ddg;
  match stripped_candidate env sid ~block with
  | None -> invalid_arg "Tile.apply: not a perfect nest"
  | Some candidate -> Interchange.apply candidate sid
