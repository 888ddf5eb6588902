(* Content fingerprints for the incremental analysis engine.

   A unit's or a program's own content is its {!Fortran_front.Canon}
   digest: the AST without source locations, so a file and its copy
   at another path, or a program and its reparsed print, fingerprint
   alike.  Statement ids are part of the content: an edit produces
   fresh ids for the statements it touched, so a fingerprint
   distinguishes "same text, re-parsed" from "the very statements
   analysis results refer to".  This module adds what a unit's
   analysis depends on beyond its content. *)

open Fortran_front

type t = Digest.t

(* What a unit's intraprocedural analysis can observe of the
   interprocedural summary: per-CALL scalar effects and array section
   pseudo-references, interprocedural formal constants, and the alias
   pairs of the unit.  Two summaries with equal facets are
   interchangeable for this unit, so cached per-unit results survive
   whole-program summary rebuilds that left the unit's view intact. *)
let interproc_facet (summary : Interproc.Summary.t) (u : Ast.program_unit) : t =
  let buf = Buffer.create 512 in
  let names = Canon.add_list Canon.add_name in
  let oracle, call_refs = Interproc.Summary.calls_for summary u in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.node with
      | Ast.Call _ ->
        Canon.add_option
          (fun buf { Scalar_analysis.Defuse.ce_mods; ce_refs; ce_kills } ->
            names buf ce_mods;
            names buf ce_refs;
            names buf ce_kills)
          buf (oracle s);
        Canon.add_list
          (fun buf (array, subs, write) ->
            Canon.add_name buf array;
            Canon.add_option (Canon.add_list Canon.add_expr) buf subs;
            Canon.add_bool buf write)
          buf (call_refs s)
      | _ -> ())
    u.Ast.body;
  Canon.add_list
    (fun buf (v, n) ->
      Canon.add_name buf v;
      Canon.add_int buf n)
    buf
    (Interproc.Ipconst.constants_of (Interproc.Summary.ipconst summary) u.Ast.uname);
  Canon.add_list
    (fun buf (a, b, kind) ->
      Canon.add_name buf a;
      Canon.add_name buf b;
      Canon.add_bool buf
        (match kind with Interproc.Aliases.Aligned -> true | May -> false))
    buf
    (Interproc.Aliases.pairs_of (Interproc.Summary.aliases summary) u.Ast.uname);
  Digest.string (Buffer.contents buf)

(* The full per-unit analysis key: the unit's statements (its
   [Canon.unit_digest]), the analysis configuration and the user's
   assertions ({!Dependence.Depenv.settings_digest}), and (when
   interprocedural analysis is on) the callees' summary facet. *)
let analysis_key ~(config : Dependence.Depenv.config)
    ~(asserts : Dependence.Depenv.assertions) ~(facet : t option) ~(content : t) : t =
  Digest.string
    (String.concat "|"
       [ content;
         Dependence.Depenv.settings_digest config asserts;
         (match facet with Some f -> f | None -> "") ])
