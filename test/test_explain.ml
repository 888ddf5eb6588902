(* Decision provenance: every dependence decision must be explainable
   — on the edge, in the no-dependence table, through the diagnosis's
   structured blocking reasons, and out the [why]/[explain] commands. *)

open Util
open Fortran_front

(* A carried flow dependence (siv-proven), next to a pair every exact
   test disproves. *)
let src_carried =
  "      PROGRAM T\n\
  \      REAL A(100)\n\
  \      DO I = 2, 50\n\
  \        A(I) = A(I - 1) + 1.0\n\
  \      ENDDO\n\
  \      END\n"

let src_nodep =
  "      PROGRAM T\n\
  \      REAL B(100)\n\
  \      DO J = 1, 10\n\
  \        B(2 * J) = B(2 * J + 1)\n\
  \      ENDDO\n\
  \      END\n"

let src_symbolic =
  "      PROGRAM T\n\
  \      REAL A(100)\n\
  \      DO K = 1, M\n\
  \        A(K) = A(K + 1)\n\
  \      ENDDO\n\
  \      END\n"

let unit_env_ddg src =
  let u = parse_unit src in
  let env = Dependence.Depenv.make (Dependence.Unit_syntax.build u) in
  (u, env, Dependence.Ddg.compute env)

let assign_sids u =
  List.rev
    (Ast.fold_stmts
       (fun acc s ->
         match s.Ast.node with Ast.Assign _ -> s.Ast.sid :: acc | _ -> acc)
       [] u.Ast.body)

let suite =
  [
    case "a surviving edge records tier, outcome, pair and loops" (fun () ->
        let _, _, g = unit_env_ddg src_carried in
        let d =
          List.find
            (fun (d : Dependence.Ddg.dep) ->
              d.Dependence.Ddg.var = "A"
              && d.Dependence.Ddg.kind = Dependence.Ddg.Flow)
            g.Dependence.Ddg.deps
        in
        let p = d.Dependence.Ddg.prov in
        check_string "tier" "siv" p.Explain.Provenance.tier;
        check_bool "proven" true
          (p.Explain.Provenance.outcome = Explain.Provenance.Proven);
        check_bool "pair recorded" true (p.Explain.Provenance.pair <> None);
        check_bool "common loop" true (p.Explain.Provenance.loops = [| "I" |]));
    case "a disproved pair lands in the no-dependence table" (fun () ->
        let u, _, g = unit_env_ddg src_nodep in
        let sid = List.hd (assign_sids u) in
        match Dependence.Ddg.why_no g ~src:sid ~dst:sid with
        | [] -> Alcotest.fail "no disproof recorded for B(2J) vs B(2J+1)"
        | nd :: _ ->
          check_string "var" "B" nd.Dependence.Ddg.nd_var;
          let p = nd.Dependence.Ddg.nd_prov in
          check_bool "disproved" true
            (p.Explain.Provenance.outcome = Explain.Provenance.Disproved);
          check_bool "a real tier decided it" true
            (p.Explain.Provenance.tier <> "");
          check_bool "tested refs recorded" true
            (p.Explain.Provenance.pair <> None));
    case "an unknown trip count is a recorded assumption" (fun () ->
        let _, _, g = unit_env_ddg src_symbolic in
        let d =
          List.find
            (fun (d : Dependence.Ddg.dep) ->
              d.Dependence.Ddg.var = "A" && not d.Dependence.Ddg.is_scalar)
            g.Dependence.Ddg.deps
        in
        check_bool "Unknown_trip K consulted" true
          (List.mem
             (Explain.Provenance.Unknown_trip "K")
             d.Dependence.Ddg.prov.Explain.Provenance.assumptions));
    case "chain rendering spells out the decision" (fun () ->
        let _, _, g = unit_env_ddg src_carried in
        let d = List.hd g.Dependence.Ddg.deps in
        let s =
          Explain.Chain.render_to_string ~header:"hdr"
            d.Dependence.Ddg.prov
        in
        check_bool "header first" true (contains ~needle:"hdr" s);
        check_bool "names the tier" true (contains ~needle:"decided by:" s));
    case "why <id> prints the provenance chain" (fun () ->
        let sess =
          Ped.Session.load_source ~file:"t.f" src_carried ~unit_name:None
        in
        let d = List.hd (Ped.Session.ddg sess).Dependence.Ddg.deps in
        let out =
          Ped.Command.run sess
            (Printf.sprintf "why %d" d.Dependence.Ddg.dep_id)
        in
        check_bool "decision line" true (contains ~needle:"decided by:" out);
        check_bool "names the edge" true
          (contains ~needle:(Printf.sprintf "#%d" d.Dependence.Ddg.dep_id) out);
        let missing = Ped.Command.run sess "why 9999" in
        check_bool "unknown id errors" true
          (contains ~needle:"error" missing));
    case "why src:dst explains the absence of a dependence" (fun () ->
        let sess =
          Ped.Session.load_source ~file:"t.f" src_nodep ~unit_name:None
        in
        let g = Ped.Session.ddg sess in
        let nd = List.hd g.Dependence.Ddg.nodeps in
        let out =
          Ped.Command.run sess
            (Printf.sprintf "why s%d:s%d" nd.Dependence.Ddg.nd_src
               nd.Dependence.Ddg.nd_dst)
        in
        check_bool "absence named" true
          (contains ~needle:"no dependence on B" out);
        check_bool "disproof chain" true (contains ~needle:"disproved" out));
    case "diagnosis blocking names edges present in the graph" (fun () ->
        let sess =
          Ped.Session.load_source ~file:"t.f" src_carried ~unit_name:None
        in
        let lp = List.hd (Ped.Session.loops sess) in
        let sid = lp.Dependence.Loopnest.lstmt.Ast.sid in
        (match
           Ped.Session.diagnose sess "parallelize"
             (Transform.Catalog.On_loop sid)
         with
        | Error e -> Alcotest.failf "explain failed: %s" e
        | Ok d ->
          let ids = Transform.Diagnosis.blocking d in
          check_bool "blocked" true (ids <> []);
          List.iter
            (fun id ->
              check_bool
                (Printf.sprintf "blocking #%d resolves in the graph" id)
                true
                (Dependence.Ddg.find_dep (Ped.Session.ddg sess) id <> None))
            ids));
    case "explain command pairs the refusal with provenance" (fun () ->
        let sess =
          Ped.Session.load_source ~file:"t.f" src_carried ~unit_name:None
        in
        let out = Ped.Command.run sess "explain parallelize l1" in
        check_bool "lists the blockers" true
          (contains ~needle:"blocking dependences:" out);
        check_bool "walks to provenance" true
          (contains ~needle:"decided by:" out));
    case "diagnosis notes print oldest first" (fun () ->
        let d =
          Transform.Diagnosis.make ~notes:[ "first finding"; "second finding" ]
            ()
        in
        check_bool "order preserved" true
          (Transform.Diagnosis.notes d = [ "first finding"; "second finding" ]);
        let s = Transform.Diagnosis.to_string d in
        let idx needle =
          let rec go i =
            if i + String.length needle > String.length s then -1
            else if String.sub s i (String.length needle) = needle then i
            else go (i + 1)
          in
          go 0
        in
        check_bool "chronological rendering" true
          (idx "first finding" >= 0 && idx "first finding" < idx "second finding"));
    case "precision accumulator tallies per tier" (fun () ->
        let p = Explain.Precision.create () in
        Explain.Precision.add p ~tier:"siv" Explain.Provenance.Proven 2;
        Explain.Precision.add p ~tier:"banerjee" Explain.Provenance.Assumed 1;
        Explain.Precision.add p ~tier:"gcd" Explain.Provenance.Disproved 5;
        Explain.Precision.add_spurious p ~tier:"banerjee" 1;
        check_int "edges" 3 (Explain.Precision.total_edges p);
        check_bool "assumed fraction" true
          (abs_float (Explain.Precision.assumed_fraction p -. (1. /. 3.))
          < 1e-9);
        check_bool "rows sorted by tier" true
          (List.map (fun (t, _, _, _, _) -> t) (Explain.Precision.rows p)
          = [ "banerjee"; "gcd"; "siv" ]);
        let j = Explain.Precision.to_json p in
        check_bool "json has the fraction" true
          (contains ~needle:"assumed_fraction" j);
        check_bool "json has the tier map" true (contains ~needle:"banerjee" j));
    case "prediction table: first dependence wins a triple" (fun () ->
        let t = Explain.Tag.create () in
        Explain.Tag.add t ~loop:3 ~var:"A" ~kind:"flow" ~dep:5;
        Explain.Tag.add t ~loop:3 ~var:"A" ~kind:"flow" ~dep:9;
        check_bool "first wins" true
          (Explain.Tag.find t ~loop:3 ~var:"A" ~kind:"flow" = Some 5);
        check_bool "other kinds miss" true
          (Explain.Tag.find t ~loop:3 ~var:"A" ~kind:"anti" = None));
    case "validator conflicts carry the predictor's verdict" (fun () ->
        let p = Runtime.Exec.force_parallel (parse src_carried) in
        let predicted =
          Runtime.Exec.run ~validate:true
            ~predict:(fun _ _ _ -> Some 7)
            p
        in
        check_bool "conflicts observed" true
          (predicted.Runtime.Exec.conflicts <> []);
        List.iter
          (fun (c : Runtime.Exec.conflict) ->
            check_bool "tagged predicted" true
              (c.Runtime.Exec.c_pred = Runtime.Exec.Predicted 7);
            check_bool "rendered with the static id" true
              (contains ~needle:"predicted by static dep #7"
                 (Runtime.Exec.conflict_to_string c)))
          predicted.Runtime.Exec.conflicts;
        let unpredicted =
          Runtime.Exec.run ~validate:true ~predict:(fun _ _ _ -> None) p
        in
        List.iter
          (fun (c : Runtime.Exec.conflict) ->
            check_bool "tagged unpredicted" true
              (c.Runtime.Exec.c_pred = Runtime.Exec.Unpredicted);
            check_bool "flagged in rendering" true
              (contains ~needle:"UNPREDICTED"
                 (Runtime.Exec.conflict_to_string c)))
          unpredicted.Runtime.Exec.conflicts;
        let untracked = Runtime.Exec.run ~validate:true p in
        List.iter
          (fun (c : Runtime.Exec.conflict) ->
            check_bool "untracked without a predictor" true
              (c.Runtime.Exec.c_pred = Runtime.Exec.Untracked);
            let s = Runtime.Exec.conflict_to_string c in
            check_bool "rendering unchanged" true
              ((not (contains ~needle:"predicted by static dep" s))
              && not (contains ~needle:"UNPREDICTED" s)))
          untracked.Runtime.Exec.conflicts);
  ]
