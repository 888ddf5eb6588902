open Fortran_front
open Dependence
open Util

let prog body decls =
  Printf.sprintf "      PROGRAM P\n%s%s      END\n" decls body

let carried_kinds env ddg iv =
  Ddg.carried_by ddg (loop_sid (loop_by_iv env iv))
  |> List.map (fun (d : Ddg.dep) -> Ddg.kind_to_string d.Ddg.kind)
  |> List.sort_uniq compare

let suite =
  [
    case "flow dep with distance 1" (fun () ->
        let env =
          env_of
            (prog "      DO I = 2, 10\n        A(I) = A(I-1) + 1.0\n      ENDDO\n"
               "      REAL A(10)\n")
        in
        let ddg = ddg_of env in
        check_bool "carries flow" true
          (List.mem "true" (carried_kinds env ddg "I"));
        check_bool "not parallel" false
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "anti dep from forward read" (fun () ->
        let env =
          env_of
            (prog "      DO I = 1, 9\n        A(I) = A(I+1) + 1.0\n      ENDDO\n"
               "      REAL A(10)\n")
        in
        let ddg = ddg_of env in
        check_bool "carries anti" true
          (List.mem "anti" (carried_kinds env ddg "I")));
    case "independent columns parallelize" (fun () ->
        let env =
          env_of
            (prog
               "      DO I = 1, 10\n        A(I) = B(I) * 2.0\n      ENDDO\n"
               "      REAL A(10), B(10)\n")
        in
        let ddg = ddg_of env in
        check_bool "parallel" true
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "strided accesses disproved by strong SIV" (fun () ->
        let env =
          env_of
            (prog "      DO I = 1, 5\n        A(2*I) = A(2*I - 1) + 1.0\n      ENDDO\n"
               "      REAL A(10)\n")
        in
        let ddg = ddg_of env in
        check_bool "parallel (odd vs even)" true
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "symbolic cancellation: A(I+N) vs A(I+N)" (fun () ->
        let env =
          env_of
            (prog "      DO I = 1, 5\n        A(I+N) = A(I+N) * 2.0\n      ENDDO\n"
               "      REAL A(100)\n      INTEGER N\n")
        in
        let ddg = ddg_of env in
        check_bool "parallel" true
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "symbolic offset blocks (pending dep)" (fun () ->
        let env =
          env_of
            (prog "      DO I = 1, 5\n        A(I) = A(I+M) * 2.0\n      ENDDO\n"
               "      REAL A(100)\n      INTEGER M\n")
        in
        let ddg = ddg_of env in
        let blockers = Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) in
        check_bool "blocked" true (blockers <> []);
        check_bool "pending" true
          (List.for_all (fun (d : Ddg.dep) -> not d.Ddg.exact) blockers));
    case "asserted value unlocks symbolic offset" (fun () ->
        let asserts =
          { Depenv.no_assertions with Depenv.asserted_values = [ ("M", 64) ] }
        in
        let env =
          env_of ~asserts
            (prog "      DO I = 1, 5\n        A(I) = A(I+M) * 2.0\n      ENDDO\n"
               "      REAL A(100)\n      INTEGER M\n")
        in
        let ddg = ddg_of env in
        check_bool "parallel" true
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "asserted injectivity unlocks index arrays" (fun () ->
        let src =
          prog
            "      DO I = 1, 10\n        A(IDX(I)) = A(IDX(I)) + 1.0\n      ENDDO\n"
            "      REAL A(10)\n      INTEGER IDX(10)\n"
        in
        let env = env_of src in
        let ddg = ddg_of env in
        check_bool "blocked without" false
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []);
        let asserts =
          { Depenv.no_assertions with Depenv.asserted_injective = [ "IDX" ] }
        in
        let env = env_of ~asserts src in
        let ddg = ddg_of env in
        check_bool "parallel with" true
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "forward substitution feeds testing" (fun () ->
        let env =
          env_of
            (prog
               "      DO I = 1, 10\n        J1 = I + 10\n        A(J1) = A(I) + 1.0\n      ENDDO\n"
               "      REAL A(30)\n      INTEGER J1\n")
        in
        let ddg = ddg_of env in
        (* A(I+10) vs A(I): distance 10 exceeds the trip count 9 *)
        check_bool "parallel" true
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "aux induction variable subscripts" (fun () ->
        let env =
          env_of
            (prog
               "      K = 0\n      DO I = 1, 10\n        K = K + 1\n        A(K) = B(K) + 1.0\n      ENDDO\n"
               "      REAL A(10), B(10)\n      INTEGER K\n")
        in
        let ddg = ddg_of env in
        (* K is I in disguise: no carried dependence on A *)
        let carried =
          Ddg.carried_by ddg (loop_sid (loop_by_iv env "I"))
          |> List.filter (fun (d : Ddg.dep) -> d.Ddg.var = "A")
        in
        check_int "no A deps" 0 (List.length carried));
    case "matmul K carried, I and J clean" (fun () ->
        let w = Option.get (Workloads.by_name "matmul") in
        let u = List.hd (Workloads.program w).Fortran_front.Ast.punits in
        let env = Depenv.make (Unit_syntax.build u) in
        let ddg = ddg_of env in
        check_bool "K blocked" false
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "K")) = []);
        let stats = ddg.Ddg.stats in
        check_bool "some pairs proven" true (stats.Ddg.proven > 0));
    case "loop-independent scalar flow deps exist" (fun () ->
        let env =
          env_of (prog "      T = 1.0\n      X = T + 1.0\n" "")
        in
        let ddg = ddg_of env in
        let li =
          List.filter
            (fun (d : Ddg.dep) ->
              d.Ddg.is_scalar && d.Ddg.kind = Ddg.Flow && d.Ddg.var = "T")
            ddg.Ddg.deps
        in
        check_bool "present" true (li <> []));
    case "control deps recorded" (fun () ->
        let env =
          env_of
            (prog "      IF (X .GT. 0.0) THEN\n        Y = 1.0\n      ENDIF\n" "")
        in
        let ddg = ddg_of env in
        check_bool "control" true
          (List.exists (fun (d : Ddg.dep) -> d.Ddg.kind = Ddg.Control) ddg.Ddg.deps));
    case "call without interproc blocks array loops" (fun () ->
        let p =
          parse
            "      PROGRAM P\n      REAL A(10)\n      DO I = 1, 10\n        CALL F(A, I)\n      ENDDO\n      END\n      SUBROUTINE F(A, I)\n      REAL A(10)\n      A(I) = 1.0\n      END\n"
        in
        let u = List.hd p.Fortran_front.Ast.punits in
        let env = Depenv.make (Unit_syntax.build u) in
        let ddg = ddg_of env in
        check_bool "blocked" false
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "ablation: base config finds fewer parallel loops" (fun () ->
        let w = Option.get (Workloads.by_name "matmul") in
        let u = List.hd (Workloads.program w).Fortran_front.Ast.punits in
        let count config =
          let env = Depenv.make ~config (Unit_syntax.build u) in
          let ddg = ddg_of env in
          List.length
            (List.filter
               (fun (l : Loopnest.loop) ->
                 Ddg.blocking env ddg (loop_sid l) = [])
               (Loopnest.loops env.Depenv.nest))
        in
        let base = count Depenv.base_config in
        let full = count Depenv.full_config in
        check_bool "monotone" true (base <= full);
        check_bool "full finds some" true (full > 0));
    case "stats count disproved tests" (fun () ->
        let env =
          env_of
            (prog "      DO I = 1, 5\n        A(2*I) = A(2*I-1) + 1.0\n      ENDDO\n"
               "      REAL A(10)\n")
        in
        let ddg = ddg_of env in
        let total =
          List.fold_left (fun acc (_, n) -> acc + n) 0 ddg.Ddg.stats.Ddg.disproved
        in
        check_bool "disproofs recorded" true (total > 0));
    case "a copy that shares a bound's block hits every bucket" (fun () ->
        let u =
          parse_unit
            (prog
               "      N = 10\n      DO I = N + 1, N + 1\n        A(I) = A(I-1)\n      ENDDO\n"
               "      REAL A(20)\n")
        in
        (* the same unit, its upper bound physically its lower bound *)
        let shared =
          {
            u with
            Ast.body =
              List.map
                (fun (s : Ast.stmt) ->
                  match s.Ast.node with
                  | Ast.Do (h, body) ->
                    { s with Ast.node = Ast.Do ({ h with Ast.hi = h.Ast.lo }, body) }
                  | _ -> s)
                u.Ast.body;
          }
        in
        check_bool "structurally equal" true (shared = u);
        let cache = Ddg.make_cache () in
        ignore (Ddg.compute ~cache (Depenv.make (Unit_syntax.build u)));
        let _, _, cold = Ddg.cache_counters cache in
        check_bool "cold run misses" true (cold > 0);
        ignore (Ddg.compute ~cache (Depenv.make (Unit_syntax.build shared)));
        let _, _, warm = Ddg.cache_counters cache in
        check_int "warm misses" 0 (warm - cold));
  ]

(* Pinned digests of the dependence graphs, so a change to graph
   assembly shows it reproduces every edge in the same order.  Per
   program (statement ids renumbered canonically), one line per edge
   over every unit, in [deps] order: id, kind, variable, endpoints,
   references, level, carrier, direction vectors, distances, exactness,
   deciding test and provenance tier.  [ip] digests the graphs built on
   the interprocedural summary's environments (what the editor
   analyses), [base] the intraprocedural graphs under [base_config]
   (no privatization: every written scalar is carried).  The programs
   are those of the [dataflow] scalar pin. *)

type graph_pin = { gname : string; ip : string; base : string }

let pinned_graphs =
  [
    { gname = "matmul";
      ip = "35caddbada040007cccc81af03a512f2"; base = "297e70f8549b27857501ec42b541b0fd" };
    { gname = "jacobi";
      ip = "485eb09aa8fc054e03a6dc8ad82be9eb"; base = "c367299569eb334d631e60d044063c02" };
    { gname = "sor";
      ip = "af55ad1390cb602b4426853ca0269011"; base = "0f97dedeb2770770dded4c0f6b671914" };
    { gname = "recur";
      ip = "84755b44d523482e77a5db1b9bb97c54"; base = "446f0066c10339d4c35dd64b06c0b34d" };
    { gname = "daxpy";
      ip = "bd133f76bc2d5ee90b2d6e0c316053bb"; base = "8ab06b474398f2383a19ca27c03d0a41" };
    { gname = "tridiag";
      ip = "564b73ceae6e9a1b83d32b7db2a3ff02"; base = "5fd0df349304c57578a0cf3d40a0d7e7" };
    { gname = "sumred";
      ip = "805c02c945229d212a37478445dde376"; base = "bddd0acec80d47e0be0f98680125f519" };
    { gname = "symbounds";
      ip = "30b80c3ff0ca06c56867fc9259f50115"; base = "6ad63dfecf880ed339d1bc15f87ae8ec" };
    { gname = "indexarr";
      ip = "70bfce08234f6696c6db5283a3f4e451"; base = "aa0d3d51c54958a76dc800bf5e2e4941" };
    { gname = "callnest";
      ip = "6fd2b47abdd0289a46c1e68af6347e4c"; base = "884094bb51385a075c8d21a6743b1ed2" };
    { gname = "arrpriv";
      ip = "7986eb945245c8ed822929c94f84fe7b"; base = "df333e961b038d30ae6570468511840e" };
    { gname = "redblack";
      ip = "fa93368a3a1c196aa4bb92d1f59e8925"; base = "8f2327b2b184d7831e9ea55b33f3caf3" };
    { gname = "gauss";
      ip = "cbd67b5ce16bf16ac3f5936384eb640d"; base = "d2f88c26927a4b4698d8ee658bb77d4b" };
    { gname = "linesweep";
      ip = "da838b9cfb65733c3ab3d6ef975d4e9d"; base = "6f260bab0abe7de77ad16e72445d6967" };
    { gname = "spec77x";
      ip = "faf4564b86752098b00ecc7bcb087b58"; base = "11ee24e37dadd725d26ef7843f1200f8" };
    { gname = "sympro";
      ip = "8c1cbc5fdb2bff9934c416236aabac52"; base = "784bf1faf4e4365daf1433ec566d4e36" };
    { gname = "shallow";
      ip = "b55edc2200322539f204148415fc0d5c"; base = "ecfd1b91f3cf668f45b256151b9d8745" };
    { gname = "dependence-carried-flow.f";
      ip = "1acf82309fd1490779a000598725b549"; base = "e14b3355732d03074421df047fd031c0" };
    { gname = "runtime-aux-induction.f";
      ip = "ebdccc36fc24dabf61016405b0769c10"; base = "37d53a0b3087c0e3c11b7c18468d0e1a" };
    { gname = "semantics-expand-induction.f";
      ip = "d4e1027ac66ff1db1e58e69acd5d335d"; base = "1fc418637680953b06a0fe245e43c464" };
    { gname = "semantics-expand-stride.f";
      ip = "2e9ff31adf6e97db512176fd924ea6de"; base = "2e9ff31adf6e97db512176fd924ea6de" };
    { gname = "semantics-reverse-stride.f";
      ip = "47073ac939e228100dc3cecf06f81c8b"; base = "23c7e47c8757dc4295c8c4391edda2fb" };
    { gname = "stress:deep@smoke";
      ip = "4781991b7a9819e3612c96f087dfa295"; base = "d1ccfb686b21108731ae2fcb3559812b" };
    { gname = "stress:wide@smoke";
      ip = "4edd1aa27f7d8cb96462526bf284019e"; base = "aa04e19dfef35a85070e870d03f4f2ad" };
    { gname = "stress:many-units@smoke";
      ip = "f3a41d20b43facdef68c94e29de50ae6"; base = "44f98d7cb95bcd38913e0b341279f9aa" };
    { gname = "stress:deep";
      ip = "59f4cf4e09dde1bcbd5853f90680b4c7"; base = "c7a65e3c2b508e0ecbf407e2d26e0eeb" };
    { gname = "goto-exits";
      ip = "25fd40c06fee498129a088ec23efaef0"; base = "25fd40c06fee498129a088ec23efaef0" };
    { gname = "goto-never-exits";
      ip = "ce3d81958d20863400ed8c3b0c377f86"; base = "ce3d81958d20863400ed8c3b0c377f86" };
    { gname = "goto-bare-cycle";
      ip = "91c2a1eb5ed609c018ad4bcac87f43f5"; base = "91c2a1eb5ed609c018ad4bcac87f43f5" };
  ]

let edge_line (d : Ddg.dep) =
  let ref_str = function Some e -> Pretty.expr_to_string e | None -> "-" in
  let opt = function Some n -> string_of_int n | None -> "-" in
  Printf.sprintf "%d %s %s s%d->s%d %s %s L%s C%s [%s] (%s) %b %s %s" d.Ddg.dep_id
    (Ddg.kind_to_string d.Ddg.kind) d.Ddg.var d.Ddg.src d.Ddg.dst (ref_str d.Ddg.src_ref)
    (ref_str d.Ddg.dst_ref) (opt d.Ddg.level) (opt d.Ddg.carrier)
    (String.concat ";"
       (List.map
          (fun dv ->
            String.concat "," (Array.to_list (Array.map Dtest.direction_to_string dv)))
          d.Ddg.dirs))
    (String.concat "," (Array.to_list (Array.map opt d.Ddg.dist)))
    d.Ddg.exact d.Ddg.test d.Ddg.prov.Explain.Provenance.tier

let graph_pin gname (prog : Ast.program) =
  let prog = Ast.renumber_program prog in
  let summary = Interproc.Summary.analyze prog in
  let digest env_of =
    let buf = Buffer.create 4096 in
    List.iter
      (fun (u : Ast.program_unit) ->
        Buffer.add_string buf ("unit " ^ u.Ast.uname ^ "\n");
        List.iter
          (fun d ->
            Buffer.add_string buf (edge_line d);
            Buffer.add_char buf '\n')
          (Ddg.compute (env_of u)).Ddg.deps)
      prog.Ast.punits;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  { gname;
    ip = digest (Interproc.Summary.env_for summary);
    base = digest (fun u -> Depenv.make ~config:Depenv.base_config (Unit_syntax.build u)) }

let show_graph_pin p =
  Printf.sprintf "    { gname = %S;\n      ip = %S; base = %S };" p.gname p.ip p.base

let graph_digests_pinned () =
  let progs = Test_dataflow.scalar_programs () in
  let moved =
    List.filter_map
      (fun (name, prog) ->
        let now = graph_pin name prog in
        if List.mem now pinned_graphs then None else Some (show_graph_pin now))
      progs
  in
  if moved <> [] then
    Alcotest.failf "%d programs moved or are not pinned; now:\n%s" (List.length moved)
      (String.concat "\n" moved);
  check_int "every program is pinned" (List.length progs) (List.length pinned_graphs)

let suite = suite @ [ case "graphs match pinned digests" graph_digests_pinned ]

(* The scalar passes query [Defuse] once per statement: assembling every
   unit of the full deep stress program, under the editor's
   interprocedural environments and under [base_config], makes at most
   2 [Defuse.uses]/[may_defs] queries per statement, read from the
   [ddg.defuse_queries] counter. *)
let defuse_queries_linear () =
  let prog =
    match Workloads.stress "stress:deep" with Ok p -> p | Error e -> Alcotest.fail e
  in
  let summary = Interproc.Summary.analyze prog in
  List.iter
    (fun (u : Ast.program_unit) ->
      let stmts = Ast.fold_stmts (fun n _ -> n + 1) 0 u.Ast.body in
      List.iter
        (fun (config, env) ->
          let tel = Telemetry.make () in
          ignore (Ddg.compute ~telemetry:tel env);
          let queries = Telemetry.value (Telemetry.counter tel "ddg.defuse_queries") in
          if queries > 2 * stmts then
            Alcotest.failf "%s (%s): %d Defuse queries for %d statements" u.Ast.uname
              config queries stmts)
        [
          ("interprocedural", Interproc.Summary.env_for summary u);
          ("base", Depenv.make ~config:Depenv.base_config (Unit_syntax.build u));
        ])
    prog.Ast.punits

let suite =
  suite @ [ case "scalar passes query Defuse once per statement" defuse_queries_linear ]

(* Provenance names the tested references.  Every array dependence's
   pair is its own references, rendered here independently (a CALL's
   whole-array summary prints a star per dimension; a backward edge
   lists its destination's reference second); every no-dependence's
   pair is a reference of its variable at its source and a reference
   at its destination, on the 17 workloads' interprocedural graphs. *)
let render_ref name subs =
  Printf.sprintf "%s(%s)" name
    (String.concat ","
       (List.map
          (function Ast.Index ("%STAR", []) -> "*" | e -> Pretty.expr_to_string e)
          subs))

let refs_at (env : Depenv.t) sid =
  match Depenv.stmt env sid with
  | None -> []
  | Some s ->
    List.map (fun (a, subs) -> (a, render_ref a subs))
      (Scalar_analysis.Defuse.array_writes env.Depenv.ctx s
       @ Scalar_analysis.Defuse.array_reads env.Depenv.ctx s)
    @ List.map
        (fun (a, subs, _) ->
          let subs =
            match subs with
            | Some subs -> subs
            | None ->
              List.init
                (max 1 (List.length (Symbol.array_dims env.Depenv.tbl a)))
                (fun _ -> Ast.Index ("%STAR", []))
          in
          (a, render_ref a subs))
        (env.Depenv.call_refs s)

let provenance_pairs_are_the_tested_refs () =
  List.iter
    (fun (w : Workloads.t) ->
      let prog = Workloads.program w in
      let summary = Interproc.Summary.analyze prog in
      List.iter
        (fun (u : Ast.program_unit) ->
          let env = Interproc.Summary.env_for summary u in
          let g = Ddg.compute env in
          let where = Printf.sprintf "%s %s" w.Workloads.name u.Ast.uname in
          let pair_str = function
            | Some (a, b) -> Printf.sprintf "(%s, %s)" a b
            | None -> "none"
          in
          List.iter
            (fun (d : Ddg.dep) ->
              match (d.Ddg.src_ref, d.Ddg.dst_ref) with
              | Some (Ast.Index (a, sa)), Some (Ast.Index (b, sb))
                when (not d.Ddg.is_scalar) && d.Ddg.kind <> Ddg.Control ->
                check_string
                  (Printf.sprintf "%s s%d->s%d %s" where d.Ddg.src d.Ddg.dst d.Ddg.var)
                  (pair_str (Some (render_ref a sa, render_ref b sb)))
                  (pair_str d.Ddg.prov.Explain.Provenance.pair)
              | _ -> ())
            g.Ddg.deps;
          List.iter
            (fun (nd : Ddg.nodep) ->
              let ok =
                match nd.Ddg.nd_prov.Explain.Provenance.pair with
                | Some (a, b) ->
                  List.mem (nd.Ddg.nd_var, a) (refs_at env nd.Ddg.nd_src)
                  && List.exists (fun (_, r) -> String.equal r b) (refs_at env nd.Ddg.nd_dst)
                | None -> false
              in
              check_bool
                (Printf.sprintf "%s no dependence s%d->s%d %s: %s" where nd.Ddg.nd_src
                   nd.Ddg.nd_dst nd.Ddg.nd_var
                   (pair_str nd.Ddg.nd_prov.Explain.Provenance.pair))
                true ok)
            g.Ddg.nodeps)
        prog.Ast.punits)
    Workloads.all

let suite =
  suite
  @ [ case "provenance pairs are the tested references" provenance_pairs_are_the_tested_refs ]
