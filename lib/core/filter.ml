open Fortran_front
open Dependence

type dep_filter = {
  f_var : string option;
  f_kind : Ddg.kind option;
  f_carried_only : bool;
  f_loop : Ast.stmt_id option;
  f_stmt : Ast.stmt_id option;
  f_status : Marking.status option;
  f_hide_scalar : bool;
  f_hide_control : bool;
}

let default_dep_filter =
  {
    f_var = None;
    f_kind = None;
    f_carried_only = false;
    f_loop = None;
    f_stmt = None;
    f_status = None;
    f_hide_scalar = false;
    f_hide_control = true;
  }

let show_all = { default_dep_filter with f_hide_control = false }

let apply_dep_filter f status deps =
  List.filter
    (fun (d : Ddg.dep) ->
      (match f.f_var with Some v -> String.equal d.Ddg.var v | None -> true)
      && (match f.f_kind with Some k -> d.Ddg.kind = k | None -> true)
      && ((not f.f_carried_only) || d.Ddg.level <> None)
      && (match f.f_loop with
         | Some sid -> d.Ddg.carrier = Some sid
         | None -> true)
      && (match f.f_stmt with
         | Some sid -> d.Ddg.src = sid || d.Ddg.dst = sid
         | None -> true)
      && (match f.f_status with
         | Some s -> status d = s
         | None -> true)
      && ((not f.f_hide_scalar) || not d.Ddg.is_scalar)
      && ((not f.f_hide_control) || d.Ddg.kind <> Ddg.Control))
    deps

type src_filter = Src_all | Src_contains of string | Src_loops

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  nl = 0
  ||
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let apply_src_filter f lines =
  match f with
  | Src_all -> lines
  | Src_contains text ->
    List.filter (fun (_, l) -> contains ~needle:text l) lines
  | Src_loops ->
    List.filter
      (fun (_, l) ->
        let t = String.trim l in
        (String.length t >= 3 && String.sub t 0 3 = "DO ")
        || (String.length t >= 9 && String.sub t 0 9 = "PARALLEL "))
      lines

let dep_filter_to_string f =
  let parts =
    (match f.f_var with Some v -> [ "var=" ^ v ] | None -> [])
    @ (match f.f_kind with
      | Some k -> [ "kind=" ^ Ddg.kind_to_string k ]
      | None -> [])
    @ (if f.f_carried_only then [ "carried" ] else [])
    @ (match f.f_loop with
      | Some sid -> [ Printf.sprintf "loop=s%d" sid ]
      | None -> [])
    @ (match f.f_stmt with
      | Some sid -> [ Printf.sprintf "stmt=s%d" sid ]
      | None -> [])
    @ (match f.f_status with
      | Some s -> [ "status=" ^ Marking.status_to_string s ]
      | None -> [])
    @ (if f.f_hide_scalar then [ "noscalar" ] else [])
    @ if f.f_hide_control then [ "nocontrol" ] else []
  in
  if parts = [] then "(none)" else String.concat " " parts
