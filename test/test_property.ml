(* The system-level soundness properties, run over the oracle
   subsystem's program generator (lib/oracle/gen.ml):

     - the DDG covers every dependence that concretely occurs when the
       program executes (brute-force enumeration of iteration pairs);
     - any transformation instance the catalog diagnoses as
       applicable+safe preserves the simulated observable state;
     - a loop the analysis approves as a DOALL produces the same
       result on the real multicore runtime and under permuted
       iteration orders.

   The generator covers 2-D subscripts (the C array), nests to depth
   2, IF guards, symbolic and triangular bounds, negative and non-unit
   steps, and auxiliary inductions — strictly more adversarial than
   the hand-rolled generator this file used to carry.  Programs whose
   baseline execution produces non-finite values are vacuously true:
   float comparison against garbage proves nothing.

   All properties honor QCHECK_SEED (see Util.qcheck_case). *)

open Fortran_front

let gen_program : Ast.program QCheck2.Gen.t =
  QCheck2.Gen.make_primitive
    ~gen:(fun st -> Oracle.Gen.program ~cfg:Oracle.Gen.small st)
    ~shrink:Oracle.Gen.shrink

let baseline_ok p =
  match Sim.Interp.run ~honor_parallel:false p with
  | exception Sim.Interp.Runtime_error _ -> false
  | o -> Oracle.Gen.finite_outcome o

let main_env p =
  let u = List.find (fun u -> u.Ast.kind = Ast.Main) p.Ast.punits in
  Dependence.Depenv.make u

let ddg_sound =
  QCheck2.Test.make ~count:40
    ~name:"DDG reports every concretely realized dependence"
    gen_program (fun p ->
      if not (baseline_ok p) then true
      else
        let env = main_env p in
        let ddg = Dependence.Ddg.compute env in
        let r = Oracle.Depcheck.check ddg p in
        match r.Oracle.Depcheck.misses with
        | [] -> true
        | m :: _ ->
          QCheck2.Test.fail_reportf "dependence miss: %s@.on:@.%s"
            (Oracle.Depcheck.miss_to_string m)
            (Pretty.program_to_string p))

let safe_transforms_preserve =
  QCheck2.Test.make ~count:40
    ~name:"catalog-approved transformations preserve semantics"
    gen_program (fun p ->
      if not (baseline_ok p) then true
      else
        match Oracle.Semcheck.check_instances ~factors:[ 3 ] p with
        | _, [] -> true
        | _, f :: _ ->
          QCheck2.Test.fail_reportf "%s@.on:@.%s"
            (Oracle.Semcheck.failure_to_string f)
            (Pretty.program_to_string p))

let approved_doalls_run_clean =
  QCheck2.Test.make ~count:25
    ~name:"analysis-approved DOALLs run clean on the multicore runtime"
    gen_program (fun p ->
      if not (baseline_ok p) then true
      else
        match (Oracle.Runcheck.check p).Oracle.Runcheck.failures with
        | [] -> true
        | f :: _ ->
          QCheck2.Test.fail_reportf "%s@.on:@.%s"
            (Oracle.Runcheck.failure_to_string f)
            (Pretty.program_to_string p))

let suite =
  [
    Util.qcheck_case ddg_sound;
    Util.qcheck_case safe_transforms_preserve;
    Util.qcheck_case approved_doalls_run_clean;
  ]
