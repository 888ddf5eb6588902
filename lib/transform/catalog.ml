open Fortran_front
open Dependence

type args =
  | On_loop of Ast.stmt_id
  | On_pair of Ast.stmt_id * Ast.stmt_id
  | With_factor of Ast.stmt_id * int
  | With_var of Ast.stmt_id * string

type analyzer = Ast.program_unit -> Depenv.t * Ddg.t

type entry = {
  name : string;
  describe : string;
  needs : string;
  diagnose : analyze:analyzer -> Depenv.t -> Ddg.t -> args -> Diagnosis.t;
  apply : Depenv.t -> Ddg.t -> args -> (Ast.program_unit, Diagnosis.t) result;
}

let bad = Diagnosis.inapplicable "wrong arguments for this transformation"

(* The rewriting functions signal "called on something the diagnosis
   rejected" with [Invalid_argument]; fold that into the same typed
   channel as wrong-shaped arguments. *)
let guard f =
  match f () with
  | u -> Ok u
  | exception Invalid_argument msg -> Error (Diagnosis.inapplicable msg)

let all =
  [
    {
      name = "parallelize";
      describe = "convert a DO loop into a PARALLEL DO";
      needs = "<loop>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | On_loop sid -> Parallelize.diagnose env ddg sid
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_loop sid -> guard (fun () -> Parallelize.apply env.Depenv.punit sid)
          | _ -> Error bad);
    };
    {
      name = "sequentialize";
      describe = "convert a PARALLEL DO back into a DO";
      needs = "<loop>";
      diagnose =
        (fun ~analyze:_ env _ -> function
          | On_loop sid -> (
            match Rewrite.find_do env.Depenv.punit sid with
            | Some (_, h, _) when h.Ast.parallel ->
              Diagnosis.make ~notes:[ "always safe" ] ()
            | Some _ -> Diagnosis.inapplicable "loop is not parallel"
            | None -> Diagnosis.inapplicable "not a DO loop")
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_loop sid ->
            guard (fun () -> Parallelize.apply_sequentialize env.Depenv.punit sid)
          | _ -> Error bad);
    };
    {
      name = "interchange";
      describe = "swap the headers of a perfect loop pair";
      needs = "<outer-loop>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | On_loop sid -> Interchange.diagnose env ddg sid
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_loop sid -> guard (fun () -> Interchange.apply env.Depenv.punit sid)
          | _ -> Error bad);
    };
    {
      name = "distribute";
      describe = "split a loop along dependence components";
      needs = "<loop>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | On_loop sid -> Distribute.diagnose env ddg sid
          | _ -> bad);
      apply =
        (fun env ddg -> function
          | On_loop sid -> guard (fun () -> Distribute.apply env ddg sid)
          | _ -> Error bad);
    };
    {
      name = "fuse";
      describe = "merge two adjacent conformable loops";
      needs = "<loop> <loop>";
      diagnose =
        (fun ~analyze env ddg -> function
          | On_pair (a, b) -> Fuse.diagnose ~analyze env ddg a b
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_pair (a, b) -> guard (fun () -> Fuse.apply env.Depenv.punit a b)
          | _ -> Error bad);
    };
    {
      name = "reverse";
      describe = "run the loop's iterations backwards";
      needs = "<loop>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | On_loop sid -> Reverse.diagnose env ddg sid
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_loop sid -> guard (fun () -> Reverse.apply env sid)
          | _ -> Error bad);
    };
    {
      name = "skew";
      describe = "skew the inner loop of a perfect pair by a factor";
      needs = "<outer-loop> <factor>";
      diagnose =
        (fun ~analyze env ddg -> function
          | With_factor (sid, f) -> Skew.diagnose ~analyze env ddg sid ~factor:f
          | _ -> bad);
      apply =
        (fun env _ -> function
          | With_factor (sid, f) ->
            guard (fun () -> Skew.apply env.Depenv.punit sid ~factor:f)
          | _ -> Error bad);
    };
    {
      name = "strip";
      describe = "strip-mine a loop into fixed-size blocks";
      needs = "<loop> <block>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | With_factor (sid, b) -> Strip_mine.diagnose env ddg sid ~block:b
          | _ -> bad);
      apply =
        (fun env _ -> function
          | With_factor (sid, b) -> guard (fun () -> Strip_mine.apply env sid ~block:b)
          | _ -> Error bad);
    };
    {
      name = "unroll";
      describe = "unroll a loop by a constant factor";
      needs = "<loop> <factor>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | With_factor (sid, f) -> Unroll.diagnose env ddg sid ~factor:f
          | _ -> bad);
      apply =
        (fun env _ -> function
          | With_factor (sid, f) -> guard (fun () -> Unroll.apply env sid ~factor:f)
          | _ -> Error bad);
    };
    {
      name = "expand";
      describe = "scalar-expand a private temporary into an array";
      needs = "<loop> <variable>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | With_var (sid, v) -> Scalar_expand.diagnose env ddg sid ~var:v
          | _ -> bad);
      apply =
        (fun env _ -> function
          | With_var (sid, v) -> guard (fun () -> Scalar_expand.apply env sid ~var:v)
          | _ -> Error bad);
    };
    {
      name = "indsub";
      describe = "substitute an induction accumulator's closed form";
      needs = "<loop> <variable>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | With_var (sid, v) -> Indsub.diagnose env ddg sid ~var:v
          | _ -> bad);
      apply =
        (fun env _ -> function
          | With_var (sid, v) -> guard (fun () -> Indsub.apply env sid ~var:v)
          | _ -> Error bad);
    };
    {
      name = "rename";
      describe = "split a reused temporary's independent def-use webs";
      needs = "<loop> <variable>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | With_var (sid, v) -> Rename_scalar.diagnose env ddg sid ~var:v
          | _ -> bad);
      apply =
        (fun env _ -> function
          | With_var (sid, v) -> guard (fun () -> Rename_scalar.apply env sid ~var:v)
          | _ -> Error bad);
    };
    {
      name = "coalesce";
      describe = "collapse a perfect nest into one product loop";
      needs = "<outer-loop>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | On_loop sid -> Coalesce.diagnose env ddg sid
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_loop sid -> guard (fun () -> Coalesce.apply env sid)
          | _ -> Error bad);
    };
    {
      name = "normalize";
      describe = "rewrite a loop to run from 1 with unit stride";
      needs = "<loop>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | On_loop sid -> Normalize_loop.diagnose env ddg sid
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_loop sid -> guard (fun () -> Normalize_loop.apply env sid)
          | _ -> Error bad);
    };
    {
      name = "tile";
      describe = "tile a perfect loop pair with a block size";
      needs = "<outer-loop> <block>";
      diagnose =
        (fun ~analyze env ddg -> function
          | With_factor (sid, b) -> Tile.diagnose ~analyze env ddg sid ~block:b
          | _ -> bad);
      apply =
        (fun env ddg -> function
          | With_factor (sid, b) -> guard (fun () -> Tile.apply env ddg sid ~block:b)
          | _ -> Error bad);
    };
    {
      name = "peel-first";
      describe = "peel the first iteration out of a loop";
      needs = "<loop>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | On_loop sid -> Peel.diagnose env ddg sid ~which:Peel.First
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_loop sid -> guard (fun () -> Peel.apply env sid ~which:Peel.First)
          | _ -> Error bad);
    };
    {
      name = "peel-last";
      describe = "peel the last iteration out of a loop";
      needs = "<loop>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | On_loop sid -> Peel.diagnose env ddg sid ~which:Peel.Last
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_loop sid -> guard (fun () -> Peel.apply env sid ~which:Peel.Last)
          | _ -> Error bad);
    };
    {
      name = "swap";
      describe = "interchange two adjacent statements";
      needs = "<stmt> <stmt>";
      diagnose =
        (fun ~analyze:_ env ddg -> function
          | On_pair (a, b) -> Stmt_interchange.diagnose env ddg a b
          | _ -> bad);
      apply =
        (fun env _ -> function
          | On_pair (a, b) ->
            guard (fun () -> Stmt_interchange.apply env.Depenv.punit a b)
          | _ -> Error bad);
    };
  ]

(* Every diagnose/apply goes through the process-default telemetry
   sink: catalog entries are invoked from editor commands, scripts and
   the fuzzer alike, none of which thread a sink of their own. *)
let instrument e =
  {
    e with
    diagnose =
      (fun ~analyze env ddg args ->
        Telemetry.span (Telemetry.default ())
          ("transform." ^ e.name ^ ".diagnose")
          (fun () -> e.diagnose ~analyze env ddg args));
    apply =
      (fun env ddg args ->
        Telemetry.span (Telemetry.default ())
          ("transform." ^ e.name ^ ".apply")
          (fun () -> e.apply env ddg args));
  }

let all = List.map instrument all

let find name =
  List.find_opt (fun e -> String.equal e.name name) all

let names = List.map (fun e -> e.name) all

(* ------------------------------------------------------------------ *)
(* Candidate enumeration                                               *)
(* ------------------------------------------------------------------ *)

(* Statement blocks of the unit: the top-level body, every DO body,
   every IF branch. *)
let rec blocks_of (stmts : Ast.stmt list) : Ast.stmt list list =
  stmts
  :: List.concat_map
       (fun (s : Ast.stmt) ->
         match s.Ast.node with
         | Ast.Do (_, body) -> blocks_of body
         | Ast.If (branches, els) ->
           List.concat_map (fun (_, b) -> blocks_of b) branches
           @ blocks_of els
         | _ -> [])
       stmts

let adjacent_pairs pred (stmts : Ast.stmt list) =
  let rec go = function
    | a :: (b :: _ as rest) ->
      if pred a && pred b then (a.Ast.sid, b.Ast.sid) :: go rest else go rest
    | _ -> []
  in
  go stmts

let sites ?(factors = [ 4 ]) (env : Depenv.t) : (string * args) list =
  let loops = Loopnest.loops env.Depenv.nest in
  let is_do (s : Ast.stmt) =
    match s.Ast.node with Ast.Do _ -> true | _ -> false
  in
  let is_assign (s : Ast.stmt) =
    match s.Ast.node with Ast.Assign _ -> true | _ -> false
  in
  let blocks = blocks_of env.Depenv.punit.Ast.body in
  let fuses =
    List.concat_map (adjacent_pairs is_do) blocks
    |> List.map (fun (a, b) -> ("fuse", On_pair (a, b)))
  in
  let swaps =
    List.concat_map (adjacent_pairs is_assign) blocks
    |> List.map (fun (a, b) -> ("swap", On_pair (a, b)))
  in
  let per_loop (l : Loopnest.loop) =
    let sid = l.Loopnest.lstmt.Ast.sid in
    let body = Loopnest.body_stmts env.Depenv.nest sid in
    let written_scalars =
      List.concat_map
        (fun s -> Scalar_analysis.Defuse.may_defs env.Depenv.ctx s)
        body
      |> List.sort_uniq String.compare
      |> List.filter (fun v ->
             (not (Symbol.is_array env.Depenv.tbl v))
             && not (String.equal v l.Loopnest.header.Ast.dvar))
    in
    List.map (fun n -> (n, On_loop sid))
      [ "parallelize"; "interchange"; "distribute"; "reverse"; "normalize";
        "coalesce"; "peel-first"; "peel-last" ]
    @ List.concat_map
        (fun f ->
          [ ("skew", With_factor (sid, 1)); ("strip", With_factor (sid, f));
            ("unroll", With_factor (sid, f)); ("tile", With_factor (sid, f)) ])
        factors
    @ List.concat_map
        (fun v ->
          [ ("expand", With_var (sid, v)); ("rename", With_var (sid, v));
            ("indsub", With_var (sid, v)) ])
        written_scalars
  in
  fuses @ swaps @ List.concat_map per_loop loops
