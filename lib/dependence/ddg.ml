open Fortran_front
open Scalar_analysis

type kind = Flow | Anti | Output | Control

let kind_to_string = function
  | Flow -> "true"
  | Anti -> "anti"
  | Output -> "output"
  | Control -> "control"

type dep = {
  dep_id : int;
  kind : kind;
  var : string;
  src : Ast.stmt_id;
  dst : Ast.stmt_id;
  src_ref : Ast.expr option;
  dst_ref : Ast.expr option;
  level : int option;
  carrier : Ast.stmt_id option;
  dirs : Dtest.direction array list;
  dist : int option array;
  exact : bool;
  test : string;
  is_scalar : bool;
  prov : Explain.Provenance.t;
}

let pp_dep ppf d =
  let dirs_str =
    match d.dirs with
    | [] -> ""
    | dv :: _ ->
      Printf.sprintf " (%s)"
        (String.concat ","
           (Array.to_list (Array.map Dtest.direction_to_string dv)))
  in
  Format.fprintf ppf "%s dep on %s: s%d -> s%d%s%s%s"
    (kind_to_string d.kind) d.var d.src d.dst dirs_str
    (match d.level with
    | Some l -> Printf.sprintf " carried at level %d" l
    | None -> " loop-independent")
    (if d.exact then " [proven]" else " [pending]")

type nodep = {
  nd_var : string;
  nd_src : Ast.stmt_id;
  nd_dst : Ast.stmt_id;
  nd_prov : Explain.Provenance.t;
}

type stats = {
  pairs_tested : int;
  disproved : (string * int) list;
  proven : int;
  pending : int;
}

type t = { deps : dep list; nodeps : nodep list; stats : stats }

(* ------------------------------------------------------------------ *)
(* Reference collection                                                *)
(* ------------------------------------------------------------------ *)

type aref = {
  r_sid : Ast.stmt_id;
  r_array : string;
  r_subs : Ast.expr list;
  r_write : bool;
  r_pos : int;  (* flattened source position, for intra-iteration order *)
  r_call : bool;  (* a CALL's Mod/Ref summary, not a source subscript *)
}

let star_expr = Ast.Index ("%STAR", [])

(* Render a reference for provenance records; a CALL's whole-array
   summary prints a star subscript. *)
let render_ref (r : aref) =
  Printf.sprintf "%s(%s)" r.r_array
    (String.concat ","
       (List.map
          (fun e -> if e = star_expr then "*" else Pretty.expr_to_string e)
          r.r_subs))

let collect_refs (env : Depenv.t) : aref list =
  let pos = ref 0 in
  let acc = ref [] in
  Ast.iter_stmts
    (fun s ->
      incr pos;
      let p = !pos in
      List.iter
        (fun (a, subs) ->
          acc :=
            { r_sid = s.Ast.sid; r_array = a; r_subs = subs; r_write = true;
              r_pos = p; r_call = false }
            :: !acc)
        (Defuse.array_writes env.Depenv.ctx s);
      List.iter
        (fun (a, subs) ->
          acc :=
            { r_sid = s.Ast.sid; r_array = a; r_subs = subs; r_write = false;
              r_pos = p; r_call = false }
            :: !acc)
        (Defuse.array_reads env.Depenv.ctx s);
      (* array side effects of calls, as pseudo-references *)
      List.iter
        (fun (a, subs, is_write) ->
          let subs =
            match subs with
            | Some subs -> subs
            | None ->
              let rank = max 1 (List.length (Symbol.array_dims env.Depenv.tbl a)) in
              List.init rank (fun _ -> star_expr)
          in
          acc :=
            { r_sid = s.Ast.sid; r_array = a; r_subs = subs; r_write = is_write;
              r_pos = p; r_call = true }
            :: !acc)
        (env.Depenv.call_refs s))
    env.Depenv.punit.Ast.body;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Direction-vector utilities                                          *)
(* ------------------------------------------------------------------ *)

let reverse_dir = function
  | Dtest.Dlt -> Dtest.Dgt
  | Dtest.Deq -> Dtest.Deq
  | Dtest.Dgt -> Dtest.Dlt

let first_non_eq (dv : Dtest.direction array) : (int * Dtest.direction) option =
  let rec go k =
    if k >= Array.length dv then None
    else match dv.(k) with Dtest.Deq -> go (k + 1) | d -> Some (k, d)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Dependence-test memoization                                         *)
(*                                                                     *)
(* Array dependence testing — the expensive part of graph building —  *)
(* is performed in buckets: the unit body is partitioned into top-    *)
(* level statement groups (a whole DO nest is one group) and every     *)
(* ordered pair of groups is tested as one unit of work.  A bucket is  *)
(* keyed on exactly the facts its pair tests read, so an edit re-tests *)
(* only the buckets whose references or scalar facts it changed, and   *)
(* any change of a fact the tests read changes the key.  Per group:    *)
(*                                                                     *)
(*   content  each statement's parent (by ordinal in the group), kind, *)
(*            DO header, auxiliary inductions and may-defs (loop       *)
(*            normalization, invariance, CALL Mod effects); each       *)
(*            reference's statement ordinal, array, subscripts, write  *)
(*            and CALL-summary flags;                                  *)
(*   context  per statement with references: each subscript's forward- *)
(*            substituted form ([Subscript.dim_form]), and for every   *)
(*            scalar of the subscripts, of those forms and of the      *)
(*            enclosing loop headers its constant there and its        *)
(*            reaching definitions; per DO, its bound scalars'         *)
(*            constants at the loop.                                   *)
(*                                                                     *)
(* The key holds no statement id and no source location, so a bucket   *)
(* replays under renumbered ids: it is stored with bucket-local        *)
(* statement indices and [assemble] maps them back.  A reaching        *)
(* definition is encoded by its statement's position in the unit, not *)
(* by id or group ordinal, so one definition reads the same in both    *)
(* groups' keys (the tests compare the two ends' definitions) and      *)
(* across renumbered programs sharing a cache.  A global part covers   *)
(* the config, assertions and alias relation, and the key records      *)
(* whether the two groups are one (a self-bucket tests only j >= i).   *)
(* ------------------------------------------------------------------ *)

type bucket = {
  b_deps : dep list list;
      (* one list per oriented reference pair, its levels in order of
         first appearance; endpoints and carriers are bucket-local
         statement indices (the first group's statements in preorder,
         then the second's); dep_ids are assigned on merge *)
  b_nodeps : nodep list;  (* disproved pairs, emission order, local indices *)
  b_pairs : int;
  b_disproved : (string * int) list;
  b_origin : int;  (* hash of the statement ids the bucket was tested under *)
}

(* The memo table is shared by concurrent bucket tests (several
   domains inside one [compute], and several sessions across a batch
   server), so the table itself is mutex-guarded and the run counters
   are atomics: a lost increment would desynchronize the engine's
   watermarked stats view. *)
type cache = {
  buckets : (string, bucket) Hashtbl.t;
  lock : Mutex.t;
  tests_executed : int Atomic.t;
  bucket_hits : int Atomic.t;
  bucket_misses : int Atomic.t;
}

let make_cache () =
  { buckets = Hashtbl.create 64; lock = Mutex.create ();
    tests_executed = Atomic.make 0; bucket_hits = Atomic.make 0;
    bucket_misses = Atomic.make 0 }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let cache_counters c =
  ( Atomic.get c.tests_executed,
    Atomic.get c.bucket_hits,
    Atomic.get c.bucket_misses )

let cache_entries c = locked c (fun () -> Hashtbl.length c.buckets)

let cache_find c key =
  let hit = locked c (fun () -> Hashtbl.find_opt c.buckets key) in
  (match hit with
  | Some _ -> Atomic.incr c.bucket_hits
  | None -> Atomic.incr c.bucket_misses);
  hit

let cache_store c key (b : bucket) =
  ignore (Atomic.fetch_and_add c.tests_executed b.b_pairs);
  locked c (fun () -> Hashtbl.replace c.buckets key b)

(* Buckets are pure data (deps, nodeps, counts — no closures), so the
   memo table marshals cleanly; this is what the persistent
   cross-process cache stores.  Counters are deliberately excluded:
   they describe a run, not the table. *)
let export_cache c : string =
  locked c (fun () -> Marshal.to_string c.buckets [])

let import_cache (s : string) ~(into : cache) : int =
  let imported : (string, bucket) Hashtbl.t = Marshal.from_string s 0 in
  locked into (fun () ->
      let added = ref 0 in
      Hashtbl.iter
        (fun key bucket ->
          if not (Hashtbl.mem into.buckets key) then begin
            Hashtbl.replace into.buckets key bucket;
            Stdlib.incr added
          end)
        imported;
      !added)

(* The scalars an expression reads.  Linearization and substitution
   only ever resolve [Var]s, so index bases are left out. *)
let rec expr_scalars acc (e : Ast.expr) =
  match e with
  | Ast.Var v -> v :: acc
  | Ast.Index (_, args) -> List.fold_left expr_scalars acc args
  | Ast.Bin (_, a, b) -> expr_scalars (expr_scalars acc a) b
  | Ast.Un (_, a) -> expr_scalars acc a
  | Ast.Int _ | Ast.Real _ | Ast.Logic _ | Ast.Str _ -> acc

let header_scalars (h : Ast.do_header) =
  List.fold_left expr_scalars [] (h.Ast.lo :: h.Ast.hi :: Option.to_list h.Ast.step)
  |> List.sort_uniq String.compare

(* One group's part of its buckets' keys (see the section comment).
   [idx] are the group's reference indices, in preorder; [index] maps
   a statement id to its position in the unit's preorder, of which the
   group occupies [base ..]. *)
let group_sig (env : Depenv.t) ~(index : Ast.stmt_id -> int) ~base
    (refs : aref array) (idx : int array) (top : Ast.stmt) : string =
  let buf = Buffer.create 1024 in
  let const_at sid v =
    match Depenv.const_var_at env sid v with
    | Some n -> Canon.add_int buf n
    | None -> Buffer.add_char buf '?'
  in
  let defs_at sid v =
    Reaching.defs_of_use env.Depenv.reaching sid v
    |> List.map (fun (d : Reaching.def) ->
           match d.Reaching.def_at with
           | Cfg.Stmt dsid -> index dsid
           | Cfg.Entry -> -1
           | Cfg.Exit -> -2)
    |> List.sort Int.compare
    |> List.iter (Canon.add_int buf)
  in
  let next = ref 0 in
  let ordinal = ref 0 in
  let rec walk parent loop_scalars (s : Ast.stmt) =
    let me = !ordinal in
    incr ordinal;
    Buffer.add_char buf 'S';
    Canon.add_int buf parent;
    let loop_scalars =
      match s.Ast.node with
      | Ast.Do (h, _) ->
        let hs = header_scalars h in
        Buffer.add_char buf 'D';
        Canon.add_name buf h.Ast.dvar;
        Canon.add_expr buf h.Ast.lo;
        Canon.add_expr buf h.Ast.hi;
        Option.iter (Canon.add_expr buf) h.Ast.step;
        Buffer.add_char buf 'a';
        List.iter
          (fun (v, stride, inc) ->
            Canon.add_name buf v;
            Canon.add_int buf stride;
            Canon.add_int buf (index inc - base))
          (Varclass.aux_inductions env.Depenv.ctx s);
        Buffer.add_char buf 'k';
        List.iter
          (fun v ->
            Canon.add_name buf v;
            const_at s.Ast.sid v)
          hs;
        hs @ loop_scalars
      | Ast.Assign _ -> Buffer.add_char buf 'A'; loop_scalars
      | Ast.If _ -> Buffer.add_char buf 'I'; loop_scalars
      | Ast.Call _ -> Buffer.add_char buf 'C'; loop_scalars
      | Ast.Goto _ | Ast.Continue | Ast.Return | Ast.Stop | Ast.Print _ ->
        Buffer.add_char buf 'O';
        loop_scalars
    in
    Buffer.add_char buf 'M';
    List.iter (Canon.add_name buf) (Defuse.may_defs env.Depenv.ctx s);
    (* the statement's references, then what their tests read *)
    let first = !next in
    while !next < Array.length idx && refs.(idx.(!next)).r_pos - 1 = base + me do
      let r = refs.(idx.(!next)) in
      Buffer.add_char buf (if r.r_write then 'W' else 'R');
      Buffer.add_char buf (if r.r_call then 'c' else 's');
      Canon.add_name buf r.r_array;
      List.iter (Canon.add_expr buf) r.r_subs;
      Buffer.add_char buf ')';
      incr next
    done;
    if !next > first then begin
      let scalars = ref loop_scalars in
      for j = first to !next - 1 do
        List.iter
          (fun e ->
            let form = Subscript.dim_form env s.Ast.sid e in
            Buffer.add_char buf 'F';
            Canon.add_expr buf form;
            scalars := expr_scalars (expr_scalars !scalars e) form)
          refs.(idx.(j)).r_subs
      done;
      List.iter
        (fun v ->
          Buffer.add_char buf 'V';
          Canon.add_name buf v;
          const_at s.Ast.sid v;
          defs_at s.Ast.sid v)
        (List.sort_uniq String.compare !scalars)
    end;
    match s.Ast.node with
    | Ast.Do (_, body) -> List.iter (walk me loop_scalars) body
    | Ast.If (branches, els) ->
      List.iter (fun (_, body) -> List.iter (walk me loop_scalars) body) branches;
      List.iter (walk me loop_scalars) els
    | Ast.Assign _ | Ast.Call _ | Ast.Goto _ | Ast.Continue | Ast.Return
    | Ast.Stop | Ast.Print _ -> ()
  in
  walk (-1) [] top;
  Digest.string (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Staged graph construction: plan -> test -> assemble                 *)
(*                                                                     *)
(* [compute] used to be one closure-heavy entry point; it is now a     *)
(* pipeline of three pure stages so that the expensive middle stage    *)
(* can be fanned out across domains by an injected task runner:        *)
(*                                                                     *)
(*   plan      enumerate the reference-pair buckets of a unit (cheap); *)
(*   test      run one bucket — reads only the immutable plan, so      *)
(*             distinct tasks may run concurrently on distinct domains;*)
(*   assemble  merge bucket outcomes (plus the sequential scalar and   *)
(*             control passes) into a graph in canonical task order,   *)
(*             independent of which domain finished first.             *)
(* ------------------------------------------------------------------ *)

(* One unit of parallel work: test every eligible reference pair
   between two top-level statement groups.  [t_key] is the bucket's
   memo-table digest, present only when the plan was built [~keyed]. *)
type task = { t_g1 : int; t_g2 : int; t_key : string option }

(* The immutable context shared by every stage — this record replaces
   the mutable refs and hash tables the old single-pass [compute]
   threaded through its inner closures.  Workers only ever read it. *)
type plan = {
  p_env : Depenv.t;
  p_refs : aref array;
  p_stmts : Ast.stmt array;  (* the unit's statements in preorder *)
  p_index : (Ast.stmt_id, int) Hashtbl.t;  (* id -> position in [p_stmts] *)
  p_base : int array;  (* each top-level group's first position *)
  p_size : int array;  (* statements per group *)
  p_ids : int array;  (* hash of each group's statement ids, when keyed *)
  p_groups : int array array;  (* ref indices of each top-level group *)
  p_tasks : task array;  (* canonical (g1, g2) lexicographic order *)
  p_keyed : bool;
  p_tel : Telemetry.sink;
}

type outcome = { o_bucket : bucket; o_cached : bool }

(* A task runner: how [compute] fans bucket tests out.  The record
   keeps this library free of any dependency on [Runtime.Pool] (which
   depends on us); [Pool.analysis_runner] produces one. *)
type runner = { run_tasks : 'a. (unit -> 'a) array -> 'a array }

let plan ?telemetry ?(keyed = false) (env : Depenv.t) : plan =
  let tel =
    match telemetry with Some t -> t | None -> Telemetry.default ()
  in
  let refs = Array.of_list (collect_refs env) in
  let n_refs = Array.length refs in

  (* ---- the unit's statements, partitioned into top-level groups:
     a group is a contiguous run of the preorder ---- *)
  let body = env.Depenv.punit.Ast.body in
  let stmts =
    Array.of_list (List.rev (Ast.fold_stmts (fun acc s -> s :: acc) [] body))
  in
  let n_stmts = Array.length stmts in
  let index = Hashtbl.create (2 * n_stmts) in
  Array.iteri (fun i (s : Ast.stmt) -> Hashtbl.replace index s.Ast.sid i) stmts;
  let size =
    Array.of_list
      (List.map (fun top -> Ast.fold_stmts (fun n _ -> n + 1) 0 [ top ]) body)
  in
  let ngroups = Array.length size in
  let base = Array.make ngroups 0 in
  for g = 1 to ngroups - 1 do
    base.(g) <- base.(g - 1) + size.(g - 1)
  done;
  let group_of = Array.make n_stmts 0 in
  Array.iteri (fun g b -> Array.fill group_of b size.(g) g) base;
  let by_group = Array.make ngroups [] in
  for i = n_refs - 1 downto 0 do
    let g = group_of.(refs.(i).r_pos - 1) in
    by_group.(g) <- i :: by_group.(g)
  done;
  let by_group = Array.map Array.of_list by_group in

  (* ---- bucket cache keys (computed only when requested) ---- *)
  let keys =
    if not keyed then None
    else
      Telemetry.span tel "ddg.key" (fun () ->
          let sigs =
            Array.of_list
              (List.mapi
                 (fun g top ->
                   if Array.length by_group.(g) = 0 then ""
                   else
                     group_sig env ~index:(Hashtbl.find index) ~base:base.(g)
                       refs by_group.(g) top)
                 body)
          in
          let global =
            let arrays =
              Array.to_list refs
              |> List.map (fun r -> r.r_array)
              |> List.sort_uniq String.compare
            in
            let buf = Buffer.create 128 in
            Buffer.add_string buf
              (Depenv.settings_digest env.Depenv.config env.Depenv.asserts);
            (* the verdicts below say which pair they are for only by
               position, so the names they range over are written too *)
            Canon.add_list Canon.add_name buf arrays;
            List.iter
              (fun a ->
                List.iter
                  (fun b ->
                    if String.compare a b < 0 then
                      Buffer.add_string buf
                        (match env.Depenv.alias a b with
                        | `Aligned -> "A"
                        | `May -> "M"
                        | `No -> "N"))
                  arrays)
              arrays;
            Digest.string (Buffer.contents buf)
          in
          Some (sigs, global))
  in
  let bucket_key g1 g2 =
    Option.map
      (fun (sigs, global) ->
        Digest.string
          (String.concat ""
             [ sigs.(g1); sigs.(g2); global; (if g1 = g2 then "=" else "<") ]))
      keys
  in

  (* ---- enumerate non-empty buckets in canonical order ---- *)
  let tasks = ref [] in
  for g1 = ngroups - 1 downto 0 do
    for g2 = ngroups - 1 downto g1 do
      if Array.length by_group.(g1) > 0 && Array.length by_group.(g2) > 0 then
        tasks := { t_g1 = g1; t_g2 = g2; t_key = bucket_key g1 g2 } :: !tasks
    done
  done;
  let ids =
    if not keyed then [||]
    else
      Array.init ngroups (fun g ->
          let h = ref 0 in
          for i = base.(g) to base.(g) + size.(g) - 1 do
            h := ((!h * 31) + stmts.(i).Ast.sid) land max_int
          done;
          !h)
  in
  { p_env = env; p_refs = refs; p_stmts = stmts; p_index = index;
    p_base = base; p_size = size; p_ids = ids; p_groups = by_group;
    p_tasks = Array.of_list !tasks; p_keyed = keyed; p_tel = tel }

let tasks p = Array.copy p.p_tasks

(* Bucket-local statement indices: the first group's statements in
   preorder, then the second's.  [to_local] maps a unit position,
   [of_local] back to the statement id under the current plan. *)
let to_local p (task : task) i =
  let b1 = p.p_base.(task.t_g1) and n1 = p.p_size.(task.t_g1) in
  if i >= b1 && i < b1 + n1 then i - b1 else n1 + i - p.p_base.(task.t_g2)

let of_local p (task : task) x =
  let n1 = p.p_size.(task.t_g1) in
  p.p_stmts.(if x < n1 then p.p_base.(task.t_g1) + x
             else p.p_base.(task.t_g2) + x - n1).Ast.sid

(* Which statement ids a bucket was tested under, for the relocation
   counter only. *)
let origin p (task : task) =
  Hashtbl.hash (p.p_ids.(task.t_g1), p.p_ids.(task.t_g2))

(* ---- one bucket of pair tests (pure: reads env and refs only) ----
   Endpoints and carriers are emitted as bucket-local indices: [local]
   maps a unit position, [index] a statement id to its position. *)
let run_pairs ~tel ~local ~index ~origin (env : Depenv.t) (refs : aref array)
    (idx_a : int array) (idx_b : int array) ~same : bucket =
    let deps = ref [] in
    let nodeps = ref [] in
    let pairs = ref 0 in
    let disproved : (string, int) Hashtbl.t = Hashtbl.create 4 in
    let bump tbl k =
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    in
    (* A bucket holds |A|+|B| references but tests up to |A|·|B| pairs,
       so what depends on one reference alone is computed once per
       reference: its rendering, the normalized common nest, and its
       subscripts analysed against that nest.  A common nest is a
       prefix of each reference's enclosing loops, so its innermost
       loop names it.  The memos live for one bucket only. *)
    let memo tbl key f =
      match Hashtbl.find_opt tbl key with
      | Some v -> v
      | None ->
        let v = f () in
        Hashtbl.replace tbl key v;
        v
    in
    let rendered = Hashtbl.create 16 in
    let render i = memo rendered i (fun () -> render_ref refs.(i)) in
    let nest_key common =
      match List.rev common with
      | [] -> -1
      | (lp : Loopnest.loop) :: _ -> lp.Loopnest.lstmt.Ast.sid
    in
    let normalized = Hashtbl.create 8 in
    let normalize common =
      memo normalized (nest_key common) (fun () -> Subscript.normalize env common)
    in
    let analyzed = Hashtbl.create 16 in
    let analyze_ref ~norm common i =
      memo analyzed (i, nest_key common) (fun () ->
          Subscript.analyze_ref env ~norm refs.(i).r_sid refs.(i).r_subs)
    in
    let do_pair i j =
      let r1 = refs.(i) and r2 = refs.(j) in
      let self_pair = i = j in
      let same_name = String.equal r1.r_array r2.r_array in
      let alias_kind =
        if same_name then `Aligned else env.Depenv.alias r1.r_array r2.r_array
      in
      let eligible =
        alias_kind <> `No
        && (r1.r_write || r2.r_write)
        && ((not self_pair) || r1.r_write)
      in
      if eligible then begin
        incr pairs;
        let common = Loopnest.common env.Depenv.nest r1.r_sid r2.r_sid in
        let n = List.length common in
        (* ddg-level provenance context the pure tester cannot see:
           the rendered pair, alias uncertainty, call summaries *)
        let enrich ~swap (prov : Explain.Provenance.t) =
          let a, b = (render i, render j) in
          let extra =
            (if alias_kind = `May then
               [ Explain.Provenance.May_alias (r1.r_array, r2.r_array) ]
             else [])
            @ (if r1.r_call then
                 [ Explain.Provenance.Call_summary r1.r_array ]
               else [])
            @
            if
              r2.r_call
              && ((not r1.r_call) || not (String.equal r1.r_array r2.r_array))
            then [ Explain.Provenance.Call_summary r2.r_array ]
            else []
          in
          { prov with
            Explain.Provenance.pair = Some (if swap then (b, a) else (a, b));
            assumptions = extra @ prov.Explain.Provenance.assumptions }
        in
        let result =
          match
            (if alias_kind = `Aligned then normalize common
             else None (* unknown offset: subscripts incomparable *))
          with
          | Some norm ->
            let d1 = analyze_ref ~norm common i in
            let d2 = analyze_ref ~norm common j in
            Dtest.test_pair ~telemetry:tel env ~common:norm
              ~src:(r1.r_sid, d1) ~dst:(r2.r_sid, d2)
          | None -> (
            (* unnormalizable nest: assume dependence in all directions *)
            let r =
              Dtest.solve ~telemetry:tel
                {
                  Dtest.nloops = n;
                  trips = Array.make n None;
                  trips_exact = Array.map (fun _ -> true) (Array.make n None);
                  lo_known = Array.make n false;
                  dims =
                    [ { Dtest.a = Array.make n 0; b = Array.make n 0; c = 0;
                        usable = false } ];
                }
            in
            (* the synthetic problem's own assumptions are noise — the
               real reason is the incomparable subscript base *)
            match r with
            | Dtest.Dependent { dirs; dist; exact; test; prov } ->
              Dtest.Dependent
                { dirs; dist; exact; test;
                  prov =
                    { prov with
                      Explain.Provenance.loops =
                        Array.of_list
                          (List.map
                             (fun (lp : Loopnest.loop) ->
                               lp.Loopnest.header.Ast.dvar)
                             common);
                      assumptions =
                        (if alias_kind = `May then []
                         else [ Explain.Provenance.Unnormalized ]) } }
            | r -> r)
        in
        match result with
        | Dtest.Independent { test; prov } ->
          bump disproved test;
          nodeps :=
            { nd_var = r1.r_array; nd_src = local (r1.r_pos - 1);
              nd_dst = local (r2.r_pos - 1);
              nd_prov = enrich ~swap:false prov }
            :: !nodeps
        | Dtest.Dependent { dirs; dist; exact; test; prov } ->
          (* partition surviving direction vectors by orientation *)
          let fwd = ref [] and bwd = ref [] and eq_fwd = ref false and eq_bwd = ref false in
          List.iter
            (fun dv ->
              match first_non_eq dv with
              | Some (_, Dtest.Dlt) -> fwd := dv :: !fwd
              | Some (_, Dtest.Dgt) -> bwd := Array.map reverse_dir dv :: !bwd
              | Some (_, Dtest.Deq) | None ->
                if self_pair || r1.r_sid = r2.r_sid then ()
                  (* same statement, same iteration: no dependence *)
                else if r1.r_pos <= r2.r_pos then eq_fwd := true
                else eq_bwd := true)
            dirs;
          let carrier_of dv =
            match first_non_eq dv with
            | Some (k, _) ->
              let lp = List.nth common k in
              (Some (k + 1), Some (local (index lp.Loopnest.lstmt.Ast.sid)))
            | None -> (None, None)
          in
          let kind_of ~src_write ~dst_write =
            if src_write && dst_write then Output
            else if src_write then Flow
            else Anti
          in
          let emit ~src ~dst ~dvs ~loop_indep ~dist ~prov =
            if dvs <> [] || loop_indep then begin
              (* group carried vectors by carrying level, levels in
                 order of first appearance ([assemble] orders them) *)
              let by_level = ref [] in
              List.iter
                (fun dv ->
                  let key = carrier_of dv in
                  match List.assoc_opt key !by_level with
                  | Some cur -> cur := dv :: !cur
                  | None -> by_level := (key, ref [ dv ]) :: !by_level)
                dvs;
              if loop_indep && not (List.mem_assoc (None, None) !by_level) then
                by_level := ((None, None), ref []) :: !by_level;
              deps :=
                List.rev_map
                  (fun ((level, carrier), dvs) ->
                    {
                      dep_id = 0;
                      kind =
                        kind_of ~src_write:src.r_write ~dst_write:dst.r_write;
                      var = src.r_array;
                      src = local (src.r_pos - 1);
                      dst = local (dst.r_pos - 1);
                      src_ref = Some (Ast.Index (src.r_array, src.r_subs));
                      dst_ref = Some (Ast.Index (dst.r_array, dst.r_subs));
                      level;
                      carrier;
                      dirs = List.rev !dvs;
                      dist;
                      exact;
                      test;
                      is_scalar = false;
                      prov;
                    })
                  !by_level
                :: !deps
            end
          in
          emit ~src:r1 ~dst:r2 ~dvs:(List.rev !fwd) ~loop_indep:!eq_fwd ~dist
            ~prov:(enrich ~swap:false prov);
          (* a self-pair's backward vectors mirror its forward ones *)
          if not self_pair then begin
            let neg_dist = Array.map (Option.map (fun d -> -d)) dist in
            emit ~src:r2 ~dst:r1 ~dvs:(List.rev !bwd) ~loop_indep:!eq_bwd
              ~dist:neg_dist ~prov:(enrich ~swap:true prov)
          end
      end
    in
    if same then
      Array.iter
        (fun i -> Array.iter (fun j -> if j >= i then do_pair i j) idx_a)
        idx_a
    else Array.iter (fun i -> Array.iter (fun j -> do_pair i j) idx_b) idx_a;
    {
      b_deps = List.rev !deps;
      b_nodeps = List.rev !nodeps;
      b_pairs = !pairs;
      b_disproved =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) disproved []
        |> List.sort compare;
      b_origin = origin;
    }

(* Run one planned bucket.  The [ddg.bucket] span is emitted on the
   executing domain, so a fanned-out analysis shows up as per-domain
   trace lanes exactly like the runtime pool's chunk spans. *)
let test (p : plan) (task : task) : bucket =
  Telemetry.span p.p_tel "ddg.bucket"
    ~args:[ ("groups", Printf.sprintf "%d,%d" task.t_g1 task.t_g2) ]
    (fun () ->
      run_pairs ~tel:p.p_tel ~local:(to_local p task)
        ~index:(Hashtbl.find p.p_index)
        ~origin:(if p.p_keyed then origin p task else 0)
        p.p_env p.p_refs p.p_groups.(task.t_g1) p.p_groups.(task.t_g2)
        ~same:(task.t_g1 = task.t_g2))

(* The provenance of the scalar and control passes' edges: one value
   per tier, shared by every edge that tier emits. *)
let scalar_prov = Explain.Provenance.simple ~tier:"scalar" Explain.Provenance.Assumed
let def_use_prov = Explain.Provenance.simple ~tier:"def-use" Explain.Provenance.Proven
let order_prov = Explain.Provenance.simple ~tier:"order" Explain.Provenance.Assumed
let control_prov = Explain.Provenance.simple ~tier:"control" Explain.Provenance.Proven

let assemble (p : plan) (outcomes : outcome array) : t =
  if Array.length outcomes <> Array.length p.p_tasks then
    invalid_arg "Ddg.assemble: one outcome per planned task expected";
  let env = p.p_env in
  let tel = p.p_tel in

  (* ---- merge bucket tallies in canonical task order ---- *)
  let pairs_tested = ref 0 in
  let disproved : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let bump_n tbl k n =
    Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  Array.iter
    (fun o ->
      pairs_tested := !pairs_tested + o.o_bucket.b_pairs;
      List.iter (fun (t, n) -> bump_n disproved t n) o.o_bucket.b_disproved)
    outcomes;

  (* every edge gets its id as it is emitted, in canonical order — the
     array edges in task order, then the scalar and control passes' —
     so a cache-assisted build and a fresh build of the same unit
     yield structurally identical graphs; [deps] holds them newest
     first *)
  let deps = ref [] and n_deps = ref 0 in
  let next_id () =
    incr n_deps;
    !n_deps
  in

  (* ---- array edges, their bucket-local indices mapped back to the
     plan's statement ids as they are copied ---- *)
  let nodeps = ref [] and proven = ref 0 in
  Telemetry.span tel "ddg.copy" (fun () ->
      Array.iteri
        (fun k o ->
          let sid = of_local p p.p_tasks.(k) in
          List.iter
            (fun nd ->
              nodeps := { nd with nd_src = sid nd.nd_src; nd_dst = sid nd.nd_dst } :: !nodeps)
            o.o_bucket.b_nodeps;
          let push d =
            if d.exact then incr proven;
            deps :=
              { d with dep_id = next_id (); src = sid d.src; dst = sid d.dst;
                carrier = Option.map sid d.carrier }
              :: !deps
          in
          List.iter
            (function
              | [ d ] -> push d
              | group ->
                (* a pair's levels come out in the order a table keyed on
                   (level, carrier id) iterates them: the order of every
                   graph built so far, which carrier ids decide *)
                let by_level = Hashtbl.create 4 in
                List.iter
                  (fun d -> Hashtbl.replace by_level (d.level, Option.map sid d.carrier) d)
                  group;
                let ordered = ref [] in
                Hashtbl.iter (fun _ d -> ordered := d :: !ordered) by_level;
                List.iter push (List.rev !ordered))
            o.o_bucket.b_deps)
        outcomes);
  let n_array = !n_deps in

  (* ---- per-statement facts, one [Defuse] query each, indexed by
     plan position ---- *)
  let stmts = p.p_stmts in
  let n_stmts = Array.length stmts in
  (* every [Defuse] query of the scalar passes, for the counter *)
  let queries = ref 0 in
  let facts =
    Array.map
      (fun s ->
        incr queries;
        Defuse.facts env.Depenv.ctx s)
      stmts
  in

  (* ---- loop-carried scalar dependences: every loop's classes from
     one walk, each blocking scalar's writers and readers scanned over
     the loop's body positions ---- *)
  let cfgc = env.Depenv.config in
  Telemetry.span tel "ddg.varclass" (fun () ->
      let classes =
        Varclass.classify_nest ~recognize_reductions:cfgc.Depenv.recognize_reductions
          ~facts:(Array.get facts) ~cfg:env.Depenv.cfg env.Depenv.ctx
          env.Depenv.liveness env.Depenv.punit.Ast.body
      in
      List.iter2
        (fun (lp : Loopnest.loop) (lc : Varclass.loop_classes) ->
          let loop_sid = lp.Loopnest.lstmt.Ast.sid in
          if lc.Varclass.lc_stmt.Ast.sid <> loop_sid then
            invalid_arg "Ddg.assemble: classes out of loop order";
          let first = lc.Varclass.lc_first and stop = lc.Varclass.lc_stop in
          let body f =
            let l = ref [] in
            for i = stop - 1 downto first do
              if f facts.(i) then l := i :: !l
            done;
            !l
          in
          let unsafe =
            if cfgc.Depenv.use_privatization then
              Varclass.blockers lc.Varclass.lc_classes
            else
              (* without scalar data-flow analysis, every written scalar
                 except the loop's own induction variable is unsafe *)
              List.concat_map (fun i -> facts.(i).Defuse.may_defs) (body (fun _ -> true))
              |> List.sort_uniq String.compare
              |> List.filter (fun v ->
                     (not (Symbol.is_array env.Depenv.tbl v))
                     && not (String.equal v lp.Loopnest.header.Ast.dvar))
          in
          let level = lp.Loopnest.depth in
          List.iter
            (fun v ->
              let writes = body (fun f -> List.mem v f.Defuse.may_defs) in
              let reads = body (fun f -> List.mem v f.Defuse.uses) in
              let emit kind i1 i2 =
                deps :=
                  {
                    dep_id = next_id ();
                    kind;
                    var = v;
                    src = stmts.(i1).Ast.sid;
                    dst = stmts.(i2).Ast.sid;
                    src_ref = None;
                    dst_ref = None;
                    level = Some level;
                    carrier = Some loop_sid;
                    dirs = [];
                    dist = [||];
                    exact = false;
                    test = "scalar";
                    is_scalar = true;
                    prov = scalar_prov;
                  }
                  :: !deps
              in
              List.iter (fun w -> List.iter (fun r -> emit Flow w r) reads) writes;
              List.iter (fun r -> List.iter (fun w -> emit Anti r w) writes) reads;
              List.iter
                (fun w1 ->
                  List.iter (fun w2 -> if w1 <> w2 then emit Output w1 w2) writes)
                writes)
            unsafe)
        (Loopnest.loops env.Depenv.nest) classes);

  (* ---- loop-independent scalar dependences (def-use order) ---- *)
  let emit_scalar kind v s1 s2 ~exact ~test ~prov =
    deps :=
      {
        dep_id = next_id ();
        kind;
        var = v;
        src = s1;
        dst = s2;
        src_ref = None;
        dst_ref = None;
        level = None;
        carrier = None;
        dirs = [];
        dist = [||];
        exact;
        test;
        is_scalar = true;
        prov;
      }
      :: !deps
  in
  Telemetry.span tel "ddg.scalar" (fun () ->
      let pos_of sid =
        match Hashtbl.find_opt p.p_index sid with Some i -> i | None -> -1
      in
      let scalars = List.filter (fun v -> not (Symbol.is_array env.Depenv.tbl v)) in
      let reads = Array.map (fun f -> scalars f.Defuse.uses) facts
      and writes = Array.map (fun f -> scalars f.Defuse.may_defs) facts in
      (* flow deps from reaching-definition chains, in CFG node order;
         chains flowing backwards in source order travel the loop back
         edge and are already reported as carried scalar dependences *)
      List.iter
        (fun node ->
          match node with
          | Cfg.Stmt use_sid ->
            let use_pos = pos_of use_sid in
            if use_pos >= 0 then
              List.iter
                (fun v ->
                  List.iter
                    (fun (d : Reaching.def) ->
                      match d.Reaching.def_at with
                      | Cfg.Stmt def_sid
                        when def_sid <> use_sid && pos_of def_sid < use_pos ->
                        emit_scalar Flow v def_sid use_sid ~exact:true ~test:"def-use"
                          ~prov:def_use_prov
                      | _ -> ())
                    (Reaching.defs_of_use env.Depenv.reaching use_sid v))
                reads.(use_pos)
          | Cfg.Entry | Cfg.Exit -> ())
        (Cfg.nodes env.Depenv.cfg);
      (* anti and output deps by intra-iteration source order: every
         statement meets the later writers of the scalars it reads or
         writes, in source order.  Each scalar's writers are kept in
         ascending position; [later i] drops the ones at or before [i]
         for good, so the walk is linear in the positions it passes plus
         the edges it emits. *)
      let writers = Hashtbl.create 64 in
      for i = n_stmts - 1 downto 0 do
        List.iter
          (fun v ->
            Hashtbl.replace writers v
              (i :: Option.value ~default:[] (Hashtbl.find_opt writers v)))
          writes.(i)
      done;
      let later i v =
        let rec drop = function j :: rest when j <= i -> drop rest | l -> l in
        match Hashtbl.find_opt writers v with
        | Some l ->
          let l = drop l in
          Hashtbl.replace writers v l;
          l
        | None -> []
      in
      Array.iteri
        (fun i (s1 : Ast.stmt) ->
          let r1 = reads.(i) and w1 = writes.(i) in
          (* the later writers of each scalar, merged: every position
             after [i] that writes one of them, once, ascending *)
          let cursors = Array.of_list (List.map (later i) (r1 @ w1)) in
          let rec next () =
            let j =
              Array.fold_left
                (fun m l -> match l with j :: _ when j < m -> j | _ -> m)
                max_int cursors
            in
            if j < max_int then begin
              Array.iteri
                (fun k l -> match l with j' :: rest when j' = j -> cursors.(k) <- rest | _ -> ())
                cursors;
              let s2 = stmts.(j) and w2 = writes.(j) in
              List.iter
                (fun v ->
                  if List.mem v w2 then
                    emit_scalar Anti v s1.Ast.sid s2.Ast.sid ~exact:false ~test:"order"
                      ~prov:order_prov)
                r1;
              List.iter
                (fun v ->
                  if List.mem v w2 then
                    emit_scalar Output v s1.Ast.sid s2.Ast.sid ~exact:false ~test:"order"
                      ~prov:order_prov)
                w1;
              next ()
            end
          in
          next ())
        stmts);

  (* ---- control dependences ---- *)
  Telemetry.span tel "ddg.control" (fun () ->
      List.iter
        (fun (e : Control_dep.edge) ->
          deps :=
            {
              dep_id = next_id ();
              kind = Control;
              var = "";
              src = e.Control_dep.branch;
              dst = e.Control_dep.dependent;
              src_ref = None;
              dst_ref = None;
              level = None;
              carrier = None;
              dirs = [];
              dist = [||];
              exact = true;
              test = "control";
              is_scalar = false;
              prov = control_prov;
            }
            :: !deps)
        env.Depenv.control);

  let deps = List.rev !deps in
  (* statistics cover the array-dependence pairs (the tested ones) *)
  let stats =
    {
      pairs_tested = !pairs_tested;
      disproved =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) disproved []
        |> List.sort compare;
      proven = !proven;
      pending = n_array - !proven;
    }
  in
  (* flush aggregated tallies to the sink in one pass — the pair-test
     stage itself stays counter-free *)
  if Telemetry.metrics_on tel then begin
    let executed =
      Array.fold_left
        (fun acc o -> if o.o_cached then acc else acc + o.o_bucket.b_pairs)
        0 outcomes
    in
    let count f = Array.fold_left (fun n o -> if f o then n + 1 else n) 0 outcomes in
    let hits = if p.p_keyed then count (fun o -> o.o_cached) else 0 in
    (* hits replayed under other statement ids than they were tested under *)
    let relocated = ref 0 in
    if p.p_keyed then
      Array.iteri
        (fun k o ->
          if o.o_cached && o.o_bucket.b_origin <> origin p p.p_tasks.(k) then
            incr relocated)
        outcomes;
    let misses = if p.p_keyed then count (fun o -> not o.o_cached) else 0 in
    let c name = Telemetry.counter tel name in
    Telemetry.add (c "ddg.pairs_tested") stats.pairs_tested;
    Telemetry.add (c "ddg.tests_executed") executed;
    Telemetry.add (c "ddg.bucket_hits") hits;
    Telemetry.add (c "ddg.bucket_misses") misses;
    Telemetry.add (c "ddg.bucket_relocated") !relocated;
    Telemetry.add (c "ddg.deps_proven") stats.proven;
    Telemetry.add (c "ddg.deps_pending") stats.pending;
    Telemetry.add (c "ddg.defuse_queries") !queries;
    List.iter
      (fun (t, n) -> Telemetry.add (c ("dtest.disproved." ^ t)) n)
      stats.disproved;
    (* provenance tallies: which tier each surviving edge came from *)
    let by_tier = Hashtbl.create 8 in
    List.iter
      (fun d ->
        let key =
          ( d.prov.Explain.Provenance.tier,
            d.prov.Explain.Provenance.outcome = Explain.Provenance.Proven )
        in
        Hashtbl.replace by_tier key
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_tier key)))
      (List.filteri (fun i _ -> i < n_array) deps);
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_tier []
    |> List.sort compare
    |> List.iter (fun ((tier, proven), n) ->
           let prefix = if proven then "dtest.proven." else "dtest.assumed." in
           Telemetry.add (c (prefix ^ tier)) n)
  end;
  { deps; nodeps = List.rev !nodeps; stats }

(* ------------------------------------------------------------------ *)
(* The one-call entry point, staged internally                         *)
(* ------------------------------------------------------------------ *)

let compute ?cache ?telemetry ?runner (env : Depenv.t) : t =
  let tel =
    match telemetry with Some t -> t | None -> Telemetry.default ()
  in
  Telemetry.span tel "ddg.compute"
    ~args:[ ("unit", env.Depenv.punit.Ast.uname) ]
    (fun () ->
      let p =
        Telemetry.span tel "ddg.plan" (fun () ->
            plan ~telemetry:tel ~keyed:(cache <> None) env)
      in
      let probe (task : task) =
        match (cache, task.t_key) with
        | Some c, Some key -> cache_find c key
        | _ -> None
      in
      let store (task : task) (b : bucket) =
        match (cache, task.t_key) with
        | Some c, Some key -> cache_store c key b
        | _ -> ()
      in
      let probed = Array.map (fun task -> (task, probe task)) p.p_tasks in
      let outcomes =
        match runner with
        | None ->
          Array.map
            (fun (task, hit) ->
              match hit with
              | Some b -> { o_bucket = b; o_cached = true }
              | None ->
                let b = test p task in
                store task b;
                { o_bucket = b; o_cached = false })
            probed
        | Some r ->
          (* fan the missing buckets out; cached ones need no work *)
          let misses =
            Array.to_list probed
            |> List.filter_map (fun (task, hit) ->
                   match hit with None -> Some task | Some _ -> None)
            |> Array.of_list
          in
          let results =
            r.run_tasks (Array.map (fun task () -> test p task) misses)
          in
          let fresh = Hashtbl.create (max 1 (Array.length misses)) in
          Array.iteri
            (fun i task ->
              store task results.(i);
              Hashtbl.replace fresh (task.t_g1, task.t_g2) results.(i))
            misses;
          Array.map
            (fun (task, hit) ->
              match hit with
              | Some b -> { o_bucket = b; o_cached = true }
              | None ->
                { o_bucket = Hashtbl.find fresh (task.t_g1, task.t_g2);
                  o_cached = false })
            probed
      in
      Telemetry.span tel "ddg.assemble" (fun () -> assemble p outcomes))

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* The graph is pure data (statement ids, expressions, direction
   arrays), and dep ids are renumbered in canonical emission order, so
   polymorphic equality is exactly structural identity. *)
let equal (a : t) (b : t) = a = b

(* A graph holds statement ids, expressions and verdicts, never a
   source location, so its marshalled bytes are its identity and need
   no {!Canon} encoder; [equal] above is the same structural notion.
   [No_sharing] canonicalizes the bytes: a graph rebuilt through the
   bucket memo shares equal dependence lists physically, which the
   default format would encode differently from a fresh build.  The
   graph is pure acyclic data, so equal graphs marshal identically. *)
let digest (g : t) =
  Digest.to_hex (Digest.string (Marshal.to_string g [ Marshal.No_sharing ]))

let find_dep t id = List.find_opt (fun d -> d.dep_id = id) t.deps

let why_no t ~src ~dst =
  List.filter
    (fun nd ->
      (nd.nd_src = src && nd.nd_dst = dst)
      || (nd.nd_src = dst && nd.nd_dst = src))
    t.nodeps

let tally_by_tier tiers =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun tier ->
      Hashtbl.replace tbl tier
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl tier)))
    tiers;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let deps_by_tier t outcome =
  tally_by_tier
    (List.filter_map
       (fun d ->
         if d.prov.Explain.Provenance.outcome = outcome then
           Some d.prov.Explain.Provenance.tier
         else None)
       t.deps)

let assumed_by_tier t = deps_by_tier t Explain.Provenance.Assumed
let proven_by_tier t = deps_by_tier t Explain.Provenance.Proven

let disproved_by_tier t =
  tally_by_tier
    (List.map (fun nd -> nd.nd_prov.Explain.Provenance.tier) t.nodeps)

let carried_by t loop_sid =
  List.filter (fun d -> d.carrier = Some loop_sid) t.deps

let deps_in_loop (env : Depenv.t) t loop_sid =
  let inside sid =
    sid = loop_sid || Loopnest.stmt_in_loop env.Depenv.nest sid ~loop_sid
  in
  List.filter (fun d -> inside d.src && inside d.dst) t.deps

let carried_blocking (env : Depenv.t) loop_sid carried =
  let private_arrays = lazy (Arrayprivate.in_loop env loop_sid) in
  List.filter
    (fun d ->
      d.kind <> Control
      && not
           ((not d.is_scalar)
           && List.mem d.var (Lazy.force private_arrays)))
    carried

let blocking env t loop_sid = carried_blocking env loop_sid (carried_by t loop_sid)

let dot ?loop (env : Depenv.t) t =
  let deps =
    match loop with
    | Some sid -> deps_in_loop env t sid
    | None -> t.deps
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph ddg {\n  node [shape=box];\n";
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun d ->
      Hashtbl.replace nodes d.src ();
      Hashtbl.replace nodes d.dst ())
    deps;
  Hashtbl.iter
    (fun sid () ->
      let label =
        match Depenv.stmt env sid with
        | Some s ->
          let text = Pretty.stmt_to_string s in
          let first =
            match String.index_opt text '\n' with
            | Some i -> String.sub text 0 i
            | None -> text
          in
          Printf.sprintf "s%d: %s" sid (String.trim first)
        | None -> Printf.sprintf "s%d" sid
      in
      Buffer.add_string buf (Printf.sprintf "  s%d [label=%S];\n" sid label))
    nodes;
  List.iter
    (fun d ->
      let style =
        match d.kind with
        | Flow -> ""
        | Anti -> " style=dashed"
        | Output -> " style=dotted"
        | Control -> " color=gray"
      in
      let label =
        Printf.sprintf "%s %s%s" (kind_to_string d.kind) d.var
          (match d.level with
          | Some l -> Printf.sprintf " @L%d" l
          | None -> "")
      in
      Buffer.add_string buf
        (Printf.sprintf "  s%d -> s%d [label=%S%s];\n" d.src d.dst label style))
    deps;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
