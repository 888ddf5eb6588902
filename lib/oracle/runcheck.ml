open Fortran_front

type failure = { r_stage : string; r_what : string }

let failure_to_string f = Printf.sprintf "[%s] %s" f.r_stage f.r_what

type result = { parallel_loops : int; failures : failure list }

let tol = 1e-4

(* The editor's own auto-parallelizer: what the oracle runs in parallel
   is exactly what [ped --execute] would. *)
let parallelize_approved (p : Ast.program) : Ast.program * int =
  let sess = Ped.Session.load p ~unit_name:(Ast.entry_unit p).Ast.uname in
  let n = Ped.Session.parallelize_safe_loops sess in
  (Ped.Session.program sess, n)

let observably_equal (base : Sim.Interp.outcome) ~output ~final_store =
  Sim.Interp.outputs_match ~tol base.Sim.Interp.output output
  && Sim.Interp.stores_match ~tol
       (List.filter (fun (n, _) -> List.mem n Gen.observed_arrays)
          base.Sim.Interp.final_store)
       (List.filter (fun (n, _) -> List.mem n Gen.observed_arrays) final_store)

let check ?(configs = [ (2, Runtime.Pool.Chunk); (3, Runtime.Pool.Self) ])
    ?(max_steps = 2_000_000) (p : Ast.program) : result =
  let p', parallel_loops = parallelize_approved p in
  if parallel_loops = 0 then { parallel_loops; failures = [] }
  else begin
    let failures = ref [] in
    let fail stage what = failures := { r_stage = stage; r_what = what } :: !failures in
    let base = Sim.Interp.run ~honor_parallel:false ~max_steps p in
    (* 1. shadow-memory validation *)
    (match Runtime.Exec.run ~validate:true ~max_steps p' with
    | out ->
      List.iter
        (fun c ->
          fail "validate"
            ("conflict on an analysis-approved DOALL: "
            ^ Runtime.Exec.conflict_to_string c))
        out.Runtime.Exec.conflicts
    | exception Runtime.Exec.Runtime_error msg ->
      fail "validate" ("validator crashed: " ^ msg));
    (* 2. real parallel execution across the config matrix *)
    List.iter
      (fun (domains, schedule) ->
        let stage =
          Printf.sprintf "exec d=%d %s" domains
            (Runtime.Pool.schedule_to_string schedule)
        in
        match Runtime.Exec.run ~domains ~schedule ~max_steps p' with
        | out ->
          if
            not
              (observably_equal base ~output:out.Runtime.Exec.output
                 ~final_store:out.Runtime.Exec.final_store)
          then fail stage "parallel execution diverged from sequential"
        | exception Runtime.Exec.Runtime_error msg ->
          fail stage ("execution crashed: " ^ msg))
      configs;
    (* 3. permuted iteration orders in the simulator *)
    List.iter
      (fun (name, order) ->
        let stage = "order " ^ name in
        match Sim.Interp.run ~par_order:order ~max_steps p' with
        | out ->
          if
            not
              (observably_equal base ~output:out.Sim.Interp.output
                 ~final_store:out.Sim.Interp.final_store)
          then fail stage "permuted iteration order changed the result"
        | exception Sim.Interp.Runtime_error msg ->
          fail stage ("simulation crashed: " ^ msg))
      [ ("reverse", Sim.Interp.Reverse); ("shuffled", Sim.Interp.Shuffled 11) ];
    { parallel_loops; failures = List.rev !failures }
  end
