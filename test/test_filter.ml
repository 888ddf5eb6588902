(* View-filter unit tests over a synthetic dependence list. *)

open Dependence
open Util

let dep ?(kind = Ddg.Flow) ?(is_scalar = false) ?(level = Some 1)
    ?(carrier = None) ?(exact = false) ~id ~src ~dst var =
  {
    Ddg.dep_id = id;
    kind;
    var;
    src;
    dst;
    src_ref = None;
    dst_ref = None;
    level;
    carrier;
    dirs = [];
    dist = [||];
    exact;
    test = "t";
    is_scalar;
    prov = Explain.Provenance.simple ~tier:"t" Explain.Provenance.Assumed;
  }

let sample =
  [
    dep ~id:1 ~src:1 ~dst:2 "A";
    dep ~id:2 ~kind:Ddg.Anti ~src:2 ~dst:3 "A" ~level:None;
    dep ~id:3 ~kind:Ddg.Output ~src:3 ~dst:4 "B" ~carrier:(Some 9);
    dep ~id:4 ~kind:Ddg.Control ~src:1 ~dst:4 "";
    dep ~id:5 ~is_scalar:true ~src:2 ~dst:2 "T";
    dep ~id:6 ~src:5 ~dst:6 "B" ~exact:true;
  ]

let ids f =
  Ped.Filter.apply_dep_filter f (Ped.Marking.status_of Ped.Marking.empty) sample
  |> List.map (fun (d : Ddg.dep) -> d.Ddg.dep_id)

let suite =
  [
    case "default hides control" (fun () ->
        check_bool "no #4" true (not (List.mem 4 (ids Ped.Filter.default_dep_filter))));
    case "show_all shows control" (fun () ->
        check_int "all six" 6 (List.length (ids Ped.Filter.show_all)));
    case "by variable" (fun () ->
        check_bool "only A" true
          (ids { Ped.Filter.default_dep_filter with Ped.Filter.f_var = Some "A" }
          = [ 1; 2 ]));
    case "by kind" (fun () ->
        check_bool "anti" true
          (ids { Ped.Filter.default_dep_filter with Ped.Filter.f_kind = Some Ddg.Anti }
          = [ 2 ]));
    case "carried only" (fun () ->
        let got =
          ids { Ped.Filter.default_dep_filter with Ped.Filter.f_carried_only = true }
        in
        check_bool "no loop-independent" true (not (List.mem 2 got)));
    case "by loop (carrier)" (fun () ->
        check_bool "only #3" true
          (ids { Ped.Filter.default_dep_filter with Ped.Filter.f_loop = Some 9 }
          = [ 3 ]));
    case "by statement" (fun () ->
        let got =
          ids { Ped.Filter.default_dep_filter with Ped.Filter.f_stmt = Some 2 }
        in
        check_bool "touching s2" true (got = [ 1; 2; 5 ]));
    case "hide scalar" (fun () ->
        let got =
          ids { Ped.Filter.default_dep_filter with Ped.Filter.f_hide_scalar = true }
        in
        check_bool "no #5" true (not (List.mem 5 got)));
    case "by status uses markings" (fun () ->
        let proven =
          ids
            { Ped.Filter.default_dep_filter with
              Ped.Filter.f_status = Some Ped.Marking.Proven }
        in
        check_bool "only exact" true (proven = [ 6 ]));
    case "filters compose" (fun () ->
        let got =
          ids
            { Ped.Filter.default_dep_filter with
              Ped.Filter.f_var = Some "B"; f_kind = Some Ddg.Output }
        in
        check_bool "B output" true (got = [ 3 ]));
    case "source filter by structure" (fun () ->
        let lines =
          [ (None, "      PROGRAM X"); (Some 1, "      DO I = 1, 3");
            (Some 2, "        Y = I"); (None, "      ENDDO") ]
        in
        let loops = Ped.Filter.apply_src_filter Ped.Filter.Src_loops lines in
        check_int "one header" 1 (List.length loops);
        let found =
          Ped.Filter.apply_src_filter (Ped.Filter.Src_contains "Y =") lines
        in
        check_int "one match" 1 (List.length found));
    case "filter description strings" (fun () ->
        check_string "none" "nocontrol"
          (Ped.Filter.dep_filter_to_string Ped.Filter.default_dep_filter);
        check_string "all" "(none)"
          (Ped.Filter.dep_filter_to_string Ped.Filter.show_all));
  ]
