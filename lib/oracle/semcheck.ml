open Fortran_front
open Dependence
open Transform

type failure = { f_name : string; f_args : string; f_what : string }

let failure_to_string f =
  Printf.sprintf "%s %s: %s" f.f_name f.f_args f.f_what

(* ------------------------------------------------------------------ *)
(* positional argument descriptors                                     *)
(* ------------------------------------------------------------------ *)

(* DO statements of the unit in preorder *)
let unit_loops (u : Ast.program_unit) =
  List.rev
    (Ast.fold_stmts
       (fun acc s ->
         match s.Ast.node with Ast.Do _ -> s.Ast.sid :: acc | _ -> acc)
       [] u.Ast.body)

(* all statements in preorder *)
let unit_stmts (u : Ast.program_unit) =
  List.rev (Ast.fold_stmts (fun acc s -> s.Ast.sid :: acc) [] u.Ast.body)

let index_of x l =
  let rec go i = function
    | [] -> None
    | y :: _ when y = x -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 l

let describe_args (env : Depenv.t) (args : Catalog.args) =
  let u = env.Depenv.punit in
  let loop_ix sid =
    match index_of sid (unit_loops u) with
    | Some i -> i
    | None -> -1
  in
  match args with
  | Catalog.On_loop sid -> Printf.sprintf "loop=%d" (loop_ix sid)
  | Catalog.With_factor (sid, f) ->
    Printf.sprintf "loop=%d factor=%d" (loop_ix sid) f
  | Catalog.With_var (sid, v) -> Printf.sprintf "loop=%d var=%s" (loop_ix sid) v
  | Catalog.On_pair (a, b) ->
    let stmts = unit_stmts u in
    let ix sid = match index_of sid stmts with Some i -> i | None -> -1 in
    Printf.sprintf "pair=%d,%d" (ix a) (ix b)

let parse_args (env : Depenv.t) (desc : string) : Catalog.args option =
  let u = env.Depenv.punit in
  let fields =
    String.split_on_char ' ' desc
    |> List.filter_map (fun f ->
           match String.index_opt f '=' with
           | Some i ->
             Some
               ( String.sub f 0 i,
                 String.sub f (i + 1) (String.length f - i - 1) )
           | None -> None)
  in
  let field k = List.assoc_opt k fields in
  let nth_opt l i = if i >= 0 && i < List.length l then Some (List.nth l i) else None in
  match (field "loop", field "pair") with
  | Some ls, _ -> (
    match int_of_string_opt ls with
    | None -> None
    | Some i -> (
      match nth_opt (unit_loops u) i with
      | None -> None
      | Some sid -> (
        match (field "factor", field "var") with
        | Some fs, _ ->
          Option.map (fun f -> Catalog.With_factor (sid, f)) (int_of_string_opt fs)
        | None, Some v -> Some (Catalog.With_var (sid, v))
        | None, None -> Some (Catalog.On_loop sid))))
  | None, Some ps -> (
    match String.split_on_char ',' ps with
    | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some ia, Some ib -> (
        let stmts = unit_stmts u in
        match (nth_opt stmts ia, nth_opt stmts ib) with
        | Some sa, Some sb -> Some (Catalog.On_pair (sa, sb))
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | None, None -> None

(* ------------------------------------------------------------------ *)
(* observable comparison                                               *)
(* ------------------------------------------------------------------ *)

let tol = 1e-5

let restrict observe store =
  List.filter (fun (name, _) -> List.mem name observe) store

let run_main ?(max_steps = 2_000_000) p =
  Sim.Interp.run ~honor_parallel:false ~max_steps p

let observably_equal ~observe (base : Sim.Interp.outcome)
    (other : Sim.Interp.outcome) =
  Sim.Interp.outputs_match ~tol base.Sim.Interp.output other.Sim.Interp.output
  && Sim.Interp.stores_match ~tol
       (restrict observe base.Sim.Interp.final_store)
       (restrict observe other.Sim.Interp.final_store)

let with_main (p : Ast.program) (u' : Ast.program_unit) =
  {
    Ast.punits =
      List.map (fun u -> if u.Ast.kind = Ast.Main then u' else u) p.Ast.punits;
  }

(* The entry unit's analysis and the analyzer of its candidate
   rewrites, from an intraprocedural engine over [p] *)
let analysis p =
  let engine = Engine.create ~interproc:false p in
  let unit_name = (Ast.entry_unit p).Ast.uname in
  let env, ddg = Option.get (Engine.analysis engine ~unit_name) in
  (env, ddg, Engine.candidate engine)

(* apply one diagnosed-safe instance; [Ok None] = instance not live *)
let try_instance ~analyze env ddg (entry : Catalog.entry) args :
    (Ast.program_unit option, string) result =
  let d = entry.Catalog.diagnose ~analyze env ddg args in
  if not (Diagnosis.ok d) then Ok None
  else
    match entry.Catalog.apply env ddg args with
    | Ok u' -> Ok (Some u')
    | Error d' ->
      Error
        (Printf.sprintf "diagnosed applicable+safe but apply refused: %s"
           (Diagnosis.to_string d'))

let check_one ~observe ~max_steps ~base p name argdesc (u' : Ast.program_unit) :
    failure option =
  let p' = with_main p u' in
  match run_main ~max_steps p' with
  | exception Sim.Interp.Runtime_error msg ->
    Some
      { f_name = name; f_args = argdesc;
        f_what = "transformed program crashed: " ^ msg }
  | out ->
    if observably_equal ~observe base out then None
    else
      Some
        { f_name = name; f_args = argdesc;
          f_what = "observable state diverged from the original" }

let check_instances ?(observe = Gen.observed_arrays) ?(factors = [ 3; 4 ])
    ?only ?(max_steps = 2_000_000) (p : Ast.program) : int * failure list =
  let env, ddg, analyze = analysis p in
  let base = run_main ~max_steps p in
  let live = ref 0 in
  let sites =
    Catalog.sites ~factors env
    |> List.filter (fun (name, _) ->
           match only with None -> true | Some names -> List.mem name names)
  in
  let failures =
    List.filter_map
      (fun (name, args) ->
        match Catalog.find name with
        | None -> None
        | Some entry -> (
          let argdesc = describe_args env args in
          match try_instance ~analyze env ddg entry args with
          | Error what -> Some { f_name = name; f_args = argdesc; f_what = what }
          | Ok None -> None
          | Ok (Some u') ->
            incr live;
            check_one ~observe ~max_steps ~base p name argdesc u'))
      sites
  in
  (!live, failures)

(* ------------------------------------------------------------------ *)
(* composed sequences                                                  *)
(* ------------------------------------------------------------------ *)

let shuffle rng l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let check_sequence ?(observe = Gen.observed_arrays) ?(len = 3)
    ?(max_steps = 2_000_000) rng (p : Ast.program) :
    (string * string) list * failure option =
  let base = run_main ~max_steps p in
  let rec go steps_done p k =
    if k = 0 then (List.rev steps_done, None)
    else
      let env, ddg, analyze = analysis p in
      let sites = shuffle rng (Catalog.sites ~factors:[ 3 ] env) in
      (* take the first live instance under this shuffle *)
      let rec first = function
        | [] -> None
        | (name, args) :: rest -> (
          match Catalog.find name with
          | None -> first rest
          | Some entry -> (
            let argdesc = describe_args env args in
            match try_instance ~analyze env ddg entry args with
            | Error what ->
              Some (`Contract { f_name = name; f_args = argdesc; f_what = what })
            | Ok None -> first rest
            | Ok (Some u') -> Some (`Applied (name, argdesc, u'))))
      in
      match first sites with
      | None -> (List.rev steps_done, None)
      | Some (`Contract f) -> (List.rev steps_done, Some f)
      | Some (`Applied (name, argdesc, u')) -> (
        let steps_done = (name, argdesc) :: steps_done in
        match check_one ~observe ~max_steps ~base p name argdesc u' with
        | Some f -> (List.rev steps_done, Some f)
        | None -> go steps_done (with_main p u') (k - 1))
  in
  go [] p (1 + Random.State.int rng len)

(* ------------------------------------------------------------------ *)
(* corpus replay                                                       *)
(* ------------------------------------------------------------------ *)

let replay_steps ?(observe = Gen.observed_arrays) ?(max_steps = 2_000_000)
    (p : Ast.program) (steps : (string * string) list) : (unit, string) result =
  let base = run_main ~max_steps p in
  let rec go p = function
    | [] -> Ok ()
    | (name, argdesc) :: rest -> (
      match Catalog.find name with
      | None -> Error (Printf.sprintf "unknown transformation %S" name)
      | Some entry -> (
        let env, ddg, analyze = analysis p in
        match parse_args env argdesc with
        | None ->
          Error
            (Printf.sprintf "step %s %s no longer resolves against the program"
               name argdesc)
        | Some args -> (
          let d = entry.Catalog.diagnose ~analyze env ddg args in
          if not (Diagnosis.ok d) then
            Ok () (* the analysis now refuses the step: bug fixed *)
          else
            match entry.Catalog.apply env ddg args with
            | Error d' ->
              Error
                (Printf.sprintf "%s %s: apply refused after ok diagnosis: %s"
                   name argdesc (Diagnosis.to_string d'))
            | Ok u' -> (
              match check_one ~observe ~max_steps ~base p name argdesc u' with
              | Some f -> Error (failure_to_string f)
              | None -> go (with_main p u') rest))))
  in
  go p steps
