(* Content fingerprints for the incremental analysis engine.

   Everything fingerprinted here is pure data (the AST carries no
   closures or cycles), so [Marshal] with [No_sharing] gives a
   canonical byte string — equal values digest equally whatever their
   internal sharing — and [Digest] a 16-byte key.  Statement ids are
   part of the content: an edit produces fresh ids for the statements
   it touched, so a fingerprint distinguishes "same text, re-parsed"
   from "the very statements analysis results refer to". *)

open Fortran_front

type t = Digest.t

let to_hex = Digest.to_hex

let of_string = Digest.string

(* A program unit's own content. *)
let unit_content (u : Ast.program_unit) : t =
  Digest.string (Marshal.to_string u [ Marshal.No_sharing ])

(* A whole program — keys the interprocedural summary cache; undo and
   redo restore a previous program value and therefore a previous
   fingerprint.  Built from the units' [unit_content] digests
   (fixed-length, so their concatenation is unambiguous), which
   [content] may serve from a memo. *)
let program ~(content : Ast.program_unit -> t) (p : Ast.program) : t =
  Digest.string (String.concat "" (List.map content p.Ast.punits))

(* What a unit's intraprocedural analysis can observe of the
   interprocedural summary: per-CALL scalar effects and array section
   pseudo-references, interprocedural formal constants, and the alias
   pairs of the unit.  Two summaries with equal facets are
   interchangeable for this unit, so cached per-unit results survive
   whole-program summary rebuilds that left the unit's view intact. *)
let interproc_facet (summary : Interproc.Summary.t) (u : Ast.program_unit) : t =
  let buf = Buffer.create 512 in
  let oracle, call_refs = Interproc.Summary.calls_for summary u in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.node with
      | Ast.Call _ ->
        Buffer.add_string buf (Marshal.to_string (oracle s) [ Marshal.No_sharing ]);
        Buffer.add_string buf (Marshal.to_string (call_refs s) [ Marshal.No_sharing ])
      | _ -> ())
    u.Ast.body;
  Buffer.add_string buf
    (Marshal.to_string
       (Interproc.Ipconst.constants_of (Interproc.Summary.ipconst summary)
          u.Ast.uname)
       [ Marshal.No_sharing ]);
  Buffer.add_string buf
    (Marshal.to_string
       (Interproc.Aliases.pairs_of (Interproc.Summary.aliases summary)
          u.Ast.uname)
       [ Marshal.No_sharing ]);
  Digest.string (Buffer.contents buf)

(* The full per-unit analysis key: the unit's statements (its
   [unit_content] digest), the analysis configuration, the user's
   assertions, and (when interprocedural analysis is on) the callees'
   summary facet. *)
let analysis_key ~(config : Dependence.Depenv.config)
    ~(asserts : Dependence.Depenv.assertions) ~(facet : t option) ~(content : t) : t =
  Digest.string
    (String.concat "|"
       [ content;
         Digest.string (Marshal.to_string (config, asserts) [ Marshal.No_sharing ]);
         (match facet with Some f -> f | None -> "") ])
