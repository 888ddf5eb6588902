open Fortran_front
open Dependence

type why = Edge | Level | Direction

type miss = {
  m_kind : Ddg.kind;
  m_var : string;
  m_src : Ast.stmt_id;
  m_dst : Ast.stmt_id;
  m_level : int option;
  m_dirs : Dtest.direction array;
  m_why : why;
  m_count : int;
}

type report = {
  classes : int;
  misses : miss list;
  realized : int;
  spurious : int;
  spurious_by_tier : (string * int) list;
  truncated : bool;
}

let why_to_string = function
  | Edge -> "no edge"
  | Level -> "wrong level"
  | Direction -> "direction vector missing"

let miss_to_string m =
  Printf.sprintf "%s %s: s%d -> s%d level=%s dirs=(%s) [%s, %d pairs]"
    (Ddg.kind_to_string m.m_kind) m.m_var m.m_src m.m_dst
    (match m.m_level with None -> "indep" | Some l -> string_of_int l)
    (String.concat ","
       (Array.to_list (Array.map Dtest.direction_to_string m.m_dirs)))
    (why_to_string m.m_why) m.m_count

(* ------------------------------------------------------------------ *)

(* a DDG dep is in the oracle's scope if it is an array dependence
   whose references are concrete (no %STAR whole-array pseudo-ref) *)
let concrete_ref = function
  | Some r ->
    not
      (Ast.fold_expr
         (fun acc e ->
           acc || match e with Ast.Index ("%STAR", _) -> true | _ -> false)
         false r)
  | None -> false

let in_scope (d : Ddg.dep) =
  (not d.Ddg.is_scalar)
  && d.Ddg.kind <> Ddg.Control
  && concrete_ref d.Ddg.src_ref
  && concrete_ref d.Ddg.dst_ref

(* direction vector of the ordered pair (earlier, later) over their
   common loops: the longest common prefix of the two loop stacks *)
let dir_vector (a : Sim.Interp.access) (b : Sim.Interp.access) =
  let rec go acc xs ys =
    match (xs, ys) with
    | (sa, ka) :: xs', (sb, kb) :: ys' when sa = sb ->
      let d =
        if ka < kb then Dtest.Dlt else if ka = kb then Dtest.Deq else Dtest.Dgt
      in
      go (d :: acc) xs' ys'
    | _ -> Array.of_list (List.rev acc)
  in
  go [] a.Sim.Interp.a_iters b.Sim.Interp.a_iters

let level_of dirs =
  let rec go i =
    if i >= Array.length dirs then None
    else if dirs.(i) <> Dtest.Deq then Some (i + 1)
    else go (i + 1)
  in
  go 0

(* even subsampling of a too-long access list, keeping first and last *)
let subsample cap l =
  let n = List.length l in
  if n <= cap then (l, false)
  else
    let arr = Array.of_list l in
    let picked =
      List.init cap (fun i -> arr.(i * (n - 1) / (cap - 1)))
    in
    (picked, true)

let check ?(max_steps = 2_000_000) ?(cell_cap = 160) (ddg : Ddg.t)
    (program : Ast.program) : report =
  (* 1. trace *)
  let acc = ref [] in
  let (_ : Sim.Interp.outcome) =
    Sim.Interp.run ~honor_parallel:false ~max_steps
      ~trace:(fun a -> acc := a :: !acc)
      program
  in
  let accesses = List.rev !acc in
  (* the env/ddg under test are the Main unit's: accesses attributed
     to callee statements (the stress factory's multi-unit programs)
     have no counterpart in this graph and are out of scope — the
     generator keeps CALLs at statement level, outside every loop, so
     dropping them loses no within-unit coverage *)
  let main_sids =
    let u =
      List.find
        (fun (u : Ast.program_unit) -> u.Ast.kind = Ast.Main)
        program.Ast.punits
    in
    let t : (Ast.stmt_id, unit) Hashtbl.t = Hashtbl.create 256 in
    Ast.iter_stmts (fun s -> Hashtbl.replace t s.Ast.sid ()) u.Ast.body;
    t
  in
  let accesses =
    List.filter
      (fun (a : Sim.Interp.access) -> Hashtbl.mem main_sids a.Sim.Interp.a_sid)
      accesses
  in
  (* 2. group per array element *)
  let cells : (string * int, Sim.Interp.access list) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun (a : Sim.Interp.access) ->
      let key = (a.Sim.Interp.a_var, a.Sim.Interp.a_off) in
      Hashtbl.replace cells key
        (a :: (try Hashtbl.find cells key with Not_found -> [])))
    accesses;
  (* 3. concrete dependence classes *)
  let classes :
      (Ddg.kind * string * Ast.stmt_id * Ast.stmt_id * int option
       * Dtest.direction array, int)
      Hashtbl.t =
    Hashtbl.create 256
  in
  let truncated = ref false in
  Hashtbl.iter
    (fun _ rev_accs ->
      let accs, trunc = subsample cell_cap (List.rev rev_accs) in
      if trunc then truncated := true;
      let arr = Array.of_list accs in
      let n = Array.length arr in
      for i = 0 to n - 2 do
        for j = i + 1 to n - 1 do
          let a = arr.(i) and b = arr.(j) in
          if
            (a.Sim.Interp.a_write || b.Sim.Interp.a_write)
            && a.Sim.Interp.a_instance <> b.Sim.Interp.a_instance
          then begin
            let dirs = dir_vector a b in
            let kind =
              if a.Sim.Interp.a_write && b.Sim.Interp.a_write then Ddg.Output
              else if a.Sim.Interp.a_write then Ddg.Flow
              else Ddg.Anti
            in
            let key =
              ( kind, a.Sim.Interp.a_var, a.Sim.Interp.a_sid,
                b.Sim.Interp.a_sid, level_of dirs, dirs )
            in
            Hashtbl.replace classes key
              (1 + try Hashtbl.find classes key with Not_found -> 0)
          end
        done
      done)
    cells;
  (* 4. index the DDG's in-scope array deps by endpoint *)
  let index :
      (Ddg.kind * string * Ast.stmt_id * Ast.stmt_id, Ddg.dep list) Hashtbl.t =
    Hashtbl.create 64
  in
  let scoped = List.filter in_scope ddg.Ddg.deps in
  List.iter
    (fun (d : Ddg.dep) ->
      let key = (d.Ddg.kind, d.Ddg.var, d.Ddg.src, d.Ddg.dst) in
      Hashtbl.replace index key
        (d :: (try Hashtbl.find index key with Not_found -> [])))
    scoped;
  let hit : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* 5. compare *)
  let misses = ref [] in
  Hashtbl.iter
    (fun (kind, var, src, dst, level, dirs) count ->
      let mk why =
        misses :=
          { m_kind = kind; m_var = var; m_src = src; m_dst = dst;
            m_level = level; m_dirs = dirs; m_why = why; m_count = count }
          :: !misses
      in
      match Hashtbl.find_opt index (kind, var, src, dst) with
      | None -> mk Edge
      | Some deps -> (
        let at_level = List.filter (fun d -> d.Ddg.level = level) deps in
        match at_level with
        | [] -> mk Level
        | _ ->
          let covered =
            List.filter
              (fun (d : Ddg.dep) ->
                d.Ddg.dirs = []  (* no vectors recorded: covers all *)
                || List.exists (fun v -> v = dirs) d.Ddg.dirs)
              at_level
          in
          if covered = [] then mk Direction
          else
            List.iter (fun d -> Hashtbl.replace hit d.Ddg.dep_id ()) covered))
    classes;
  let realized = Hashtbl.length hit in
  (* attribute each never-realized edge to the tier that decided it:
     the precision dashboard's per-tier spurious-edge rate *)
  let by_tier = Hashtbl.create 8 in
  List.iter
    (fun (d : Ddg.dep) ->
      if not (Hashtbl.mem hit d.Ddg.dep_id) then begin
        let tier = d.Ddg.prov.Explain.Provenance.tier in
        Hashtbl.replace by_tier tier
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_tier tier))
      end)
    scoped;
  {
    classes = Hashtbl.length classes;
    misses = !misses;
    realized;
    spurious = List.length scoped - realized;
    spurious_by_tier =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_tier []
      |> List.sort compare;
    truncated = !truncated;
  }

let check_main program =
  let engine = Engine.create ~interproc:false program in
  let unit_name = (Ast.entry_unit program).Ast.uname in
  check (snd (Option.get (Engine.analysis engine ~unit_name))) program
