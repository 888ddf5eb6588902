open Fortran_front
open Scalar_analysis

type t = {
  cg : Callgraph.t;
  modref_ : Modref.t;
  kills_ : Ipkill.t;
  sections_ : Sections.t;
  ipconst_ : Ipconst.t;
  aliases_ : Aliases.t;
}

(* Each pass re-solves only the units the edit since [base] reaches
   and shares [base]'s facts for the rest. *)
let analyze ?telemetry ?base (prog : Ast.program) : t =
  let sink =
    match telemetry with Some s -> s | None -> Telemetry.default ()
  in
  let from f = Option.map f base in
  let cg =
    Telemetry.span sink "interproc.callgraph" (fun () ->
        Callgraph.build ?base:(from (fun b -> b.cg)) prog)
  in
  let modref_ =
    Telemetry.span sink "interproc.modref" (fun () ->
        Modref.compute ?base:(from (fun b -> b.modref_)) cg)
  in
  let kills_ =
    Telemetry.span sink "interproc.ipkill" (fun () ->
        Ipkill.compute ?base:(from (fun b -> b.kills_)) cg modref_)
  in
  let sections_ =
    Telemetry.span sink "interproc.sections" (fun () ->
        Sections.compute ?base:(from (fun b -> b.sections_)) cg)
  in
  let ipconst_ =
    Telemetry.span sink "interproc.ipconst" (fun () ->
        Ipconst.compute ?base:(from (fun b -> b.ipconst_)) cg)
  in
  let aliases_ =
    Telemetry.span sink "interproc.aliases" (fun () ->
        Aliases.compute ?base:(from (fun b -> b.aliases_)) cg)
  in
  Telemetry.add
    (Telemetry.counter sink "interproc.units_solved")
    (List.fold_left
       (fun n l -> n + List.length l)
       0
       [ Modref.solved modref_; Ipkill.solved kills_; Sections.solved sections_;
         Ipconst.solved ipconst_; Aliases.solved aliases_ ]);
  { cg; modref_; kills_; sections_; ipconst_; aliases_ }

let recomputed t =
  List.sort_uniq String.compare
    (Modref.solved t.modref_ @ Ipkill.solved t.kills_ @ Sections.solved t.sections_)

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

(* The oracle and the array effects of [u]'s CALLs, given [u]'s
   symbol table. *)
let calls_of t tbl u =
  ( (fun s ->
      match site_of u s with
      | None -> None
      | Some site ->
        let mods, refs = Modref.translate t.modref_ ~site ~tbl in
        let kills = Ipkill.translate t.kills_ ~site in
        Some { Defuse.ce_mods = mods; ce_refs = refs; ce_kills = kills }),
    fun s ->
      match site_of u s with
      | None -> []
      | Some site -> Sections.call_refs t.sections_ ~site ~tbl )

let calls_for t u = calls_of t (Callgraph.symbols t.cg u) u

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
  let syntax = Callgraph.syntax t.cg u in
  let oracle, call_refs = calls_of t (Dependence.Unit_syntax.symbols syntax) u in
  Dependence.Depenv.make ~oracle ~call_refs
    ~alias:(fun a b ->
      if String.equal a b then `Aligned
      else Aliases.query t.aliases_ u.Ast.uname a b)
    ?config ~asserts syntax
