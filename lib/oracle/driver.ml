open Fortran_front

type oracle = Dep | Sem | Run | Cg

type config = {
  n : int;
  seed : int;
  oracles : oracle list;
  corpus_dir : string option;
  shrink : bool;
  gen_cfg : Gen.cfg;
  program_gen : (Random.State.t -> Ast.program) option;
  sequences : bool;
  progress : string -> unit;
}

let default =
  {
    n = 100;
    seed = 0;
    oracles = [ Dep; Sem; Run ];
    corpus_dir = None;
    shrink = true;
    gen_cfg = Gen.default;
    program_gen = None;
    sequences = true;
    progress = ignore;
  }

(* One seed-resolution rule for every entry point, so QCHECK_SEED
   reaches the fuzz driver and the stress factory the same way the
   property-test suite honors it: an explicit --seed wins, then a
   well-formed QCHECK_SEED, then the documented default. *)
let default_seed = 42

let seed_of ~env ~cli =
  match cli with
  | Some s -> s
  | None -> (
    match env with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> default_seed)
    | None -> default_seed)

type stats = {
  programs : int;
  rejected : int;
  dep_classes : int;
  dep_misses : int;
  dep_realized : int;
  dep_spurious : int;
  dep_spurious_by_tier : (string * int) list;
  sem_instances : int;
  sem_failures : int;
  seq_steps : int;
  seq_failures : int;
  run_loops : int;
  run_failures : int;
  cg_programs : int;
  cg_skipped : int;
  cg_failures : int;
  failures : string list;
  saved : string list;
}

let ok s = s.failures = []

let summary s =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "fuzz: %d programs (%d rejected as non-finite)" s.programs s.rejected;
  line
    "  dependence: %d concrete classes, %d misses; %d DDG edges realized, %d spurious"
    s.dep_classes s.dep_misses s.dep_realized s.dep_spurious;
  if s.dep_spurious_by_tier <> [] then
    line "    spurious by deciding tier: %s"
      (String.concat ", "
         (List.map
            (fun (tier, n) -> Printf.sprintf "%s %d" tier n)
            s.dep_spurious_by_tier));
  line "  semantics:  %d instances, %d failures; %d sequence steps, %d failures"
    s.sem_instances s.sem_failures s.seq_steps s.seq_failures;
  line "  runtime:    %d parallel loops executed, %d failures" s.run_loops
    s.run_failures;
  if s.cg_programs + s.cg_skipped + s.cg_failures > 0 then
    line "  codegen:    %d programs compiled, %d skipped, %d failures"
      s.cg_programs s.cg_skipped s.cg_failures;
  if s.failures = [] then line "  all oracles green"
  else begin
    line "  FAILURES:";
    List.iter (fun f -> line "    %s" f) s.failures
  end;
  List.iter (fun f -> line "  saved %s" f) s.saved;
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let max_steps = 2_000_000

let baseline_ok p =
  match Sim.Interp.run ~honor_parallel:false ~max_steps p with
  | exception Sim.Interp.Runtime_error _ -> false
  | o -> Gen.finite_outcome o

(* greedy descent over the shrink candidates; [pred] must hold of the
   input and is re-established at every step *)
let minimize ~budget pred p0 =
  let remaining = ref budget in
  let rec go p =
    let rec scan seq =
      if !remaining <= 0 then None
      else
        match seq () with
        | Seq.Nil -> None
        | Seq.Cons (c, rest) ->
          decr remaining;
          if (try baseline_ok c && pred c with _ -> false) then Some c
          else scan rest
    in
    match scan (Gen.shrink p) with Some c -> go c | None -> p
  in
  go p0

let run (cfg : config) : stats =
  let enabled o = List.mem o cfg.oracles in
  let rejected = ref 0 and programs = ref 0 in
  let dep_classes = ref 0 and dep_miss = ref 0 in
  let dep_realized = ref 0 and dep_spurious = ref 0 in
  let dep_spurious_by_tier : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let sem_instances = ref 0 and sem_failures = ref 0 in
  let seq_steps = ref 0 and seq_failures = ref 0 in
  let run_loops = ref 0 and run_failures = ref 0 in
  let cg_programs = ref 0 and cg_skipped = ref 0 and cg_failures = ref 0 in
  let failures = ref [] and saved = ref [] in
  let record_failure line = failures := line :: !failures in
  let persist ~oracle ~seed ~steps p =
    match cfg.corpus_dir with
    | None -> ()
    | Some dir -> saved := Corpus.save ~dir ~oracle ~seed ~steps p :: !saved
  in
  for i = 0 to cfg.n - 1 do
    let rng = Random.State.make [| cfg.seed; i |] in
    let seed_desc = Printf.sprintf "%d#%d" cfg.seed i in
    (* rejection-sample a program with a finite baseline *)
    let rec draw attempts =
      if attempts = 0 then None
      else
        let p =
          match cfg.program_gen with
          | Some g -> g rng
          | None -> Gen.program ~cfg:cfg.gen_cfg rng
        in
        if baseline_ok p then Some p
        else begin
          incr rejected;
          draw (attempts - 1)
        end
    in
    match draw 10 with
    | None -> ()
    | Some p ->
      incr programs;
      if i mod 25 = 0 then
        cfg.progress (Printf.sprintf "program %d/%d" i cfg.n);
      (* --- brute-force dependence oracle ----------------------- *)
      if enabled Dep then begin
        let r = Depcheck.check_main p in
        dep_classes := !dep_classes + r.Depcheck.classes;
        dep_realized := !dep_realized + r.Depcheck.realized;
        dep_spurious := !dep_spurious + r.Depcheck.spurious;
        List.iter
          (fun (tier, n) ->
            Hashtbl.replace dep_spurious_by_tier tier
              (n
              + Option.value ~default:0
                  (Hashtbl.find_opt dep_spurious_by_tier tier)))
          r.Depcheck.spurious_by_tier;
        if r.Depcheck.misses <> [] then begin
          dep_miss := !dep_miss + List.length r.Depcheck.misses;
          let q =
            if cfg.shrink then
              minimize ~budget:250
                (fun c -> (Depcheck.check_main c).Depcheck.misses <> [])
                p
            else p
          in
          let final = Depcheck.check_main q in
          List.iter
            (fun m ->
              record_failure
                (Printf.sprintf "[dependence %s] %s" seed_desc
                   (Depcheck.miss_to_string m)))
            final.Depcheck.misses;
          persist ~oracle:"dependence" ~seed:seed_desc ~steps:[] q
        end
      end;
      (* --- semantics oracle ------------------------------------ *)
      if enabled Sem then begin
        let live, fs = Semcheck.check_instances p in
        sem_instances := !sem_instances + live;
        if fs <> [] then begin
          sem_failures := !sem_failures + List.length fs;
          let names =
            List.sort_uniq String.compare
              (List.map (fun f -> f.Semcheck.f_name) fs)
          in
          List.iter
            (fun name ->
              let still_fails c =
                let _, fs' = Semcheck.check_instances ~only:[ name ] c in
                fs' <> []
              in
              let q =
                if cfg.shrink then minimize ~budget:120 still_fails p else p
              in
              let _, fs' = Semcheck.check_instances ~only:[ name ] q in
              (match fs' with
              | f :: _ ->
                record_failure
                  (Printf.sprintf "[semantics %s] %s" seed_desc
                     (Semcheck.failure_to_string f));
                persist ~oracle:"semantics" ~seed:seed_desc
                  ~steps:[ (f.Semcheck.f_name, f.Semcheck.f_args) ]
                  q
              | [] ->
                (* shrinking lost it; report the original *)
                let f =
                  List.find (fun f -> f.Semcheck.f_name = name) fs
                in
                record_failure
                  (Printf.sprintf "[semantics %s] %s" seed_desc
                     (Semcheck.failure_to_string f));
                persist ~oracle:"semantics" ~seed:seed_desc
                  ~steps:[ (f.Semcheck.f_name, f.Semcheck.f_args) ]
                  p))
            names
        end;
        if cfg.sequences then begin
          let steps, sf = Semcheck.check_sequence rng p in
          seq_steps := !seq_steps + List.length steps;
          match sf with
          | None -> ()
          | Some f ->
            incr seq_failures;
            record_failure
              (Printf.sprintf "[semantics-seq %s after %s] %s" seed_desc
                 (String.concat " ; "
                    (List.map (fun (n, a) -> n ^ " " ^ a) steps))
                 (Semcheck.failure_to_string f));
            (* sequences are saved unshrunk: the positional step
               descriptors would dangle as the program shrinks *)
            persist ~oracle:"semantics" ~seed:seed_desc ~steps p
        end
      end;
      (* --- runtime oracle -------------------------------------- *)
      if enabled Run then begin
        let r = Runcheck.check p in
        run_loops := !run_loops + r.Runcheck.parallel_loops;
        if r.Runcheck.failures <> [] then begin
          run_failures := !run_failures + List.length r.Runcheck.failures;
          let q =
            if cfg.shrink then
              minimize ~budget:80
                (fun c -> (Runcheck.check c).Runcheck.failures <> [])
                p
            else p
          in
          let final = Runcheck.check q in
          List.iter
            (fun f ->
              record_failure
                (Printf.sprintf "[runtime %s] %s" seed_desc
                   (Runcheck.failure_to_string f)))
            (if final.Runcheck.failures <> [] then final.Runcheck.failures
             else r.Runcheck.failures);
          persist ~oracle:"runtime" ~seed:seed_desc ~steps:[]
            (if final.Runcheck.failures <> [] then q else p)
        end
      end;
      (* --- codegen oracle -------------------------------------- *)
      if enabled Cg then begin
        let r = Cgcheck.check p in
        if r.Cgcheck.compiled then incr cg_programs;
        if r.Cgcheck.skipped <> None then incr cg_skipped;
        if r.Cgcheck.failures <> [] then begin
          cg_failures := !cg_failures + List.length r.Cgcheck.failures;
          let q =
            if cfg.shrink then
              minimize ~budget:40
                (fun c -> (Cgcheck.check c).Cgcheck.failures <> [])
                p
            else p
          in
          let final = Cgcheck.check q in
          List.iter
            (fun f ->
              record_failure
                (Printf.sprintf "[codegen %s] %s" seed_desc
                   (Runcheck.failure_to_string f)))
            (if final.Cgcheck.failures <> [] then final.Cgcheck.failures
             else r.Cgcheck.failures);
          persist ~oracle:"codegen" ~seed:seed_desc ~steps:[]
            (if final.Cgcheck.failures <> [] then q else p)
        end
      end
  done;
  {
    programs = !programs;
    rejected = !rejected;
    dep_classes = !dep_classes;
    dep_misses = !dep_miss;
    dep_realized = !dep_realized;
    dep_spurious = !dep_spurious;
    dep_spurious_by_tier =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) dep_spurious_by_tier []
      |> List.sort compare;
    sem_instances = !sem_instances;
    sem_failures = !sem_failures;
    seq_steps = !seq_steps;
    seq_failures = !seq_failures;
    run_loops = !run_loops;
    run_failures = !run_failures;
    cg_programs = !cg_programs;
    cg_skipped = !cg_skipped;
    cg_failures = !cg_failures;
    failures = List.rev !failures;
    saved = List.rev !saved;
  }
