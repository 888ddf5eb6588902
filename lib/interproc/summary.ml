open Fortran_front
open Scalar_analysis

type t = {
  cg : Callgraph.t;
  modref_ : Modref.t;
  kills_ : Ipkill.t;
  sections_ : Sections.t;
  ipconst_ : Ipconst.t;
  aliases_ : Aliases.t;
  recomputed : string list;
}

(* The bottom-up analyses reuse [base]'s per-unit results wherever
   their inputs are unchanged; the top-down ones (constants, aliases)
   run in full over the shared symbol tables. *)
let analyze ?base (prog : Ast.program) : t =
  let from f = Option.map f base in
  let cg = Callgraph.build ?base:(from (fun b -> b.cg)) prog in
  let modref_ = Modref.compute ?base:(from (fun b -> b.modref_)) cg in
  let kills_ = Ipkill.compute ?base:(from (fun b -> b.kills_)) cg modref_ in
  let sections_ = Sections.compute ?base:(from (fun b -> b.sections_)) cg in
  let ipconst_ = Ipconst.compute cg in
  let aliases_ = Aliases.compute cg in
  let recomputed =
    List.sort_uniq String.compare
      (Modref.recomputed modref_ @ Ipkill.recomputed kills_
     @ Sections.recomputed sections_)
  in
  { cg; modref_; kills_; sections_; ipconst_; aliases_; recomputed }

let recomputed t = t.recomputed

let equal a b =
  let names = Callgraph.unit_names a.cg in
  names = Callgraph.unit_names b.cg
  && List.for_all
       (fun n ->
         let modref t =
           Option.map
             (fun (s : Modref.summary) ->
               Modref.SSet.(elements s.mods, elements s.refs))
             (Modref.summary_of t.modref_ n)
         in
         modref a = modref b
         && Ipkill.kills_of a.kills_ n = Ipkill.kills_of b.kills_ n
         && Sections.summary_of a.sections_ n = Sections.summary_of b.sections_ n
         && Ipconst.constants_of a.ipconst_ n = Ipconst.constants_of b.ipconst_ n
         && Aliases.pairs_of a.aliases_ n = Aliases.pairs_of b.aliases_ n)
       names

let callgraph t = t.cg
let modref t = t.modref_
let kills t = t.kills_
let sections t = t.sections_
let ipconst t = t.ipconst_
let aliases t = t.aliases_

let site_of (u : Ast.program_unit) (s : Ast.stmt) : Callgraph.site option =
  match s.Ast.node with
  | Ast.Call (callee, actuals) ->
    Some
      { Callgraph.caller = u.Ast.uname; callee; call_sid = s.Ast.sid; actuals }
  | _ -> None

let oracle_for t (u : Ast.program_unit) : Defuse.call_oracle =
  let tbl = Callgraph.symbols t.cg u in
  fun s ->
    match site_of u s with
    | None -> None
    | Some site ->
      let mods, refs = Modref.translate t.modref_ ~site ~tbl in
      let kills = Ipkill.translate t.kills_ ~site ~tbl in
      Some { Defuse.ce_mods = mods; ce_refs = refs; ce_kills = kills }

let call_refs_for t (u : Ast.program_unit) : Dependence.Depenv.call_refs =
  let tbl = Callgraph.symbols t.cg u in
  fun s ->
    match site_of u s with
    | None -> []
    | Some site -> Sections.call_refs t.sections_ ~site ~tbl

let env_for ?config ?(asserts = Dependence.Depenv.no_assertions) t
    (u : Ast.program_unit) : Dependence.Depenv.t =
  let asserts =
    {
      asserts with
      Dependence.Depenv.asserted_values =
        asserts.Dependence.Depenv.asserted_values
        @ Ipconst.constants_of t.ipconst_ u.Ast.uname;
    }
  in
  Dependence.Depenv.make ~oracle:(oracle_for t u)
    ~call_refs:(call_refs_for t u)
    ~alias:(fun a b ->
      if String.equal a b then `Aligned
      else Aliases.query t.aliases_ u.Ast.uname a b)
    ?config ~asserts u
