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
        let env = Depenv.make u in
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
        let env = Depenv.make u in
        let ddg = ddg_of env in
        check_bool "blocked" false
          (Ddg.blocking env ddg (loop_sid (loop_by_iv env "I")) = []));
    case "ablation: base config finds fewer parallel loops" (fun () ->
        let w = Option.get (Workloads.by_name "matmul") in
        let u = List.hd (Workloads.program w).Fortran_front.Ast.punits in
        let count config =
          let env = Depenv.make ~config u in
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
        ignore (Ddg.compute ~cache (Depenv.make u));
        let _, _, cold = Ddg.cache_counters cache in
        check_bool "cold run misses" true (cold > 0);
        ignore (Ddg.compute ~cache (Depenv.make shared));
        let _, _, warm = Ddg.cache_counters cache in
        check_int "warm misses" 0 (warm - cold));
  ]
